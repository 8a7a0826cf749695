// Self-observability layer (DESIGN.md §3.4): the profiler profiling itself.
//
// The paper's collector must keep its own overhead "sufficiently low to
// avoid distorting the data" (§2.2) — a claim we could not previously back
// with numbers. This subsystem gives every layer of the pipeline a
// low-overhead way to account for its own cost:
//
//   * monotonic counters     event/outcome tallies (overflows handled,
//                            backtrack outcomes, events folded, drops);
//   * gauges                 instantaneous values (queue depth, sessions);
//   * latency histograms     fixed power-of-two buckets over nanoseconds
//                            (backtrack query time, per-shard fold time,
//                            queue wait time);
//   * scoped trace spans     begin/end timestamps in per-thread ring
//                            buffers, exportable as chrome://tracing JSON.
//
// Design constraints, in order:
//
//   1. Always compiled in, ~zero cost when disabled. `DSPROF_OBS=0`
//      disables at startup (set_enabled() is the bench/test seam); every
//      hot-path call then reduces to one relaxed atomic-bool load and a
//      predictable branch. bench/obs_overhead enforces < 3% overhead on
//      the pipeline and ingest hot paths even when *enabled*.
//
//   2. Lock-free hot path. Counter/histogram updates are relaxed atomic
//      adds on a thread-local shard; no shared cache line is written by
//      two threads. snapshot() merges the shards (integer addition —
//      associative and commutative, so the merged totals are exact and
//      deterministic for any thread schedule; tests/obs_test.cpp).
//
//   3. Bounded memory. Fixed-capacity metric tables and span rings; a
//      full ring overwrites its oldest records and counts the loss
//      (spans_dropped) rather than allocating or blocking. A thread's
//      shard is reused by a later thread once it exits, so the shard
//      count follows the peak number of live recording threads.
//
// Handles are interned once (function-local statics at the use site) and
// are trivially copyable; the hot path never touches the registry mutex.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace dsprof::obs {

// --- capacities (fixed: shards are flat arrays, never resized) -------------
inline constexpr size_t kMaxCounters = 64;
inline constexpr size_t kMaxGauges = 16;
inline constexpr size_t kMaxHistograms = 32;
/// Histogram buckets: bucket i counts values in [2^(i-1), 2^i); bucket 0
/// counts zero. 48 buckets cover ~78 hours in nanoseconds.
inline constexpr size_t kHistBuckets = 48;
/// Per-thread span ring capacity; wraps (oldest overwritten, loss counted).
inline constexpr size_t kSpanRingCapacity = 4096;

/// Monotonic wall clock (steady), nanoseconds. The single time source for
/// every obs timestamp, so spans and histograms share one timeline.
u64 now_ns();

/// Global enable flag. Initialized once from the DSPROF_OBS environment
/// variable ("0" disables; anything else, or unset, enables). Reads are
/// relaxed atomic loads — the only cost instrumentation pays when off.
bool enabled();

/// Test/bench seam: flip instrumentation at runtime (bench/obs_overhead
/// measures the same process with obs off and on).
void set_enabled(bool on);

// --- handles ----------------------------------------------------------------
// Interning a name twice returns the same handle. Handles are valid for the
// process lifetime. Registration takes the registry mutex; do it once
// (function-local static) and keep the handle.

struct Counter {
  u32 id = 0;
  /// Monotonic add (relaxed, thread-local shard).
  void add(u64 delta = 1) const;
};

struct Gauge {
  u32 id = 0;
  /// Last-writer-wins instantaneous value (single global slot).
  void set(i64 v) const;
};

struct Histogram {
  u32 id = 0;
  /// Record one sample (power-of-two bucket + exact count/sum).
  void record(u64 value) const;
};

struct SpanName {
  u32 id = 0;
};

Counter counter(const std::string& name);
Gauge gauge(const std::string& name);
Histogram histogram(const std::string& name);
SpanName span_name(const std::string& name);

/// RAII trace span: records [construction, destruction) into the calling
/// thread's ring buffer. When obs is disabled at construction, destruction
/// does nothing (t0 sentinel) — a span never straddles an enable flip.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanName name_;
  u64 t0_ = 0;  // 0 = disabled at construction; skip the record
};

/// RAII latency sample: records elapsed nanoseconds into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram h);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram h_;
  u64 t0_ = 0;  // 0 = disabled at construction
};

// --- snapshots --------------------------------------------------------------

struct HistogramSnapshot {
  u64 count = 0;
  u64 sum = 0;
  std::array<u64, kHistBuckets> buckets{};

  /// Inclusive lower bound of bucket i (0 for bucket 0, else 2^(i-1)).
  static u64 bucket_floor(size_t i) { return i == 0 ? 0 : u64{1} << (i - 1); }
  /// Approximate quantile: upper bound of the bucket where the cumulative
  /// count first reaches q*count. Deterministic, exact to one bucket.
  u64 quantile(double q) const;
  u64 mean() const { return count == 0 ? 0 : sum / count; }
};

/// One completed span, timestamps from now_ns(). `tid` is the shard index:
/// a small integer, stable while a thread lives; a thread started after
/// another has exited may reuse that thread's shard and so its tid. `name`
/// indexes Snapshot::span_names.
struct SpanRecord {
  u32 name = 0;
  u32 tid = 0;
  u64 t0_ns = 0;
  u64 t1_ns = 0;
};

/// Point-in-time merge of every thread shard. Metric vectors are sorted by
/// name; merged counts are exact (integer sums), so two snapshots with no
/// intervening activity are identical for any thread schedule.
struct Snapshot {
  bool was_enabled = false;
  std::vector<std::pair<std::string, u64>> counters;
  std::vector<std::pair<std::string, i64>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  u64 spans_recorded = 0;
  u64 spans_dropped = 0;

  /// Counter value by name (0 when absent) — the cross-layer agreement
  /// checks (dsprofd Stats vs er_print -O) key on these.
  u64 counter_value(const std::string& name) const;
  const HistogramSnapshot* histogram_by_name(const std::string& name) const;

  /// One-line machine-diffable JSON object.
  std::string to_json() const;
  /// Human-readable self-profile report (er_print -O).
  std::string to_text() const;
};

Snapshot snapshot();

/// All retained span records, sorted by start time, plus the name table.
std::vector<SpanRecord> span_records(std::vector<std::string>* names = nullptr);

/// chrome://tracing-compatible JSON ({"traceEvents":[...]}, "X" phase
/// events, microsecond timestamps). Load via chrome://tracing or Perfetto.
std::string chrome_trace_json();

/// Zero every counter/gauge/histogram/ring (names and handles survive).
/// Single-threaded use only — tests and benches isolating a measurement.
void reset_for_test();

}  // namespace dsprof::obs

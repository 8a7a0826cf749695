// Metric reduction over columnar event stores: one fold path for every view.
//
// The seed's Analysis constructor folded every event into half a dozen
// std::maps (string keys, per-event frame-name vectors) — a serial,
// allocation-heavy pass over 10^5-10^6 events. Here every reduction, offline
// or online, runs through the same two calls:
//
//   * IncrementalReducer::fold — the radix fold (RadixFolder in
//     reduction.cpp). Each batch of events is partitioned into dense
//     decision ids (unique (candidate_pc, delivered_pc, pic/event/flags)
//     tuples — symbol lookups and §2.3 candidate validation run once per
//     unique tuple, not per event) and dense path ids (unique (callstack,
//     leaf) pairs); a tight loop adds weights into dense arrays indexed by
//     those ids, which expand into the hash-keyed ReductionResult once per
//     fold call;
//   * merge_results — integer (u64) sums per key, EA samples concatenated in
//     part order.
//
// Because every aggregate is an integer sum, folding [0,a), [a,b), ...,
// [y,n) and merging is bit-identical to one fold over [0,n) for any split.
// Reduction::run (offline er_print) splits the concatenated events of its
// experiments into contiguous shards, one worker thread per shard, folds
// each (shard, experiment) segment with its own IncrementalReducer, and
// merges the segments in event order; dsprofd folds batches into one
// reducer per session and the fleet view merges the sessions. er_print -J,
// the dsprofd snapshot and the merged fleet view therefore render the same
// bytes by construction. tests/reduce_oracle.cpp keeps the seed's std::map
// fold as the equivalence oracle for the tests and the bench yardsticks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analyze/metrics.hpp"
#include "experiment/experiment.hpp"
#include "support/flat_hash.hpp"

namespace dsprof::analyze {

/// Integer metric accumulator — exact, order-independent summation.
using MetricCounts = std::array<u64, kNumMetrics>;

inline MetricVector to_metric_vector(const MetricCounts& c) {
  MetricVector v{};
  for (size_t i = 0; i < kNumMetrics; ++i) v[i] = static_cast<double>(c[i]);
  return v;
}

/// One effective-address sample (validated trigger with a recomputed EA),
/// kept in event order for the address-space views.
struct EaSample {
  u64 ea;
  size_t metric;
  double w;
};

/// The merged aggregates the views render from. Keys are packed composites:
///   pc:     (pc << 1) | artificial
///   func:   function id (index into func_names)
///   incl:   function id
///   edge:   (caller id << 32) | callee id
///   line:   source line
///   data:   (cat << 32) | struct TypeId
///   member: (TypeId << 32) | member index
struct ReductionResult {
  std::array<bool, kNumMetrics> present{};
  MetricCounts total{};
  MetricCounts data_total{};

  FlatHashU64Map<MetricCounts> pc;
  FlatHashU64Map<MetricCounts> func;
  FlatHashU64Map<MetricCounts> incl;
  FlatHashU64Map<MetricCounts> edge;
  FlatHashU64Map<MetricCounts> line;
  FlatHashU64Map<MetricCounts> data;
  FlatHashU64Map<MetricCounts> member;

  std::vector<EaSample> ea_samples;

  /// Function id -> display name. Ids 0..N-1 are the symbol table's
  /// functions in table order; id N is "<unknown code>".
  std::vector<std::string> func_names;

  size_t events_reduced = 0;

  /// Per-metric event (sample) counts over the reduced events — clock
  /// samples under kUserCpuMetric, hardware samples under their event id.
  /// This is the n behind the sampling-error estimate (Analysis::
  /// metric_stderr); carrying it in the result lets the dsprofd snapshot
  /// path — where the rendering Experiment holds no events — report the
  /// same standard errors an offline analysis over the events would.
  MetricCounts sample_counts{};
};

/// Merge completed reductions into one, as if their event sequences had
/// been concatenated in part order and reduced offline. Exact: every
/// aggregate is an integer (u64) sum, so the merge is associative and
/// commutative per key, and EA samples concatenate in part order just like
/// the offline shard merge. This is the fleet MergedView primitive — the
/// cross-session extension of the online-vs-offline bit-identity invariant
/// (merging N sessions' live aggregates == one offline multi-dir
/// reduction). All parts must come from the same binary (func_names must
/// agree); throws dsprof::Error otherwise.
ReductionResult merge_results(const std::vector<const ReductionResult*>& parts);

class Reduction {
 public:
  /// One value only: the fold has a single implementation. Kept so that
  /// dsbench can stamp its provenance line with the engine name.
  enum class Engine { Radix };

  /// Reduction::run takes no settings; the struct is kept so existing
  /// call sites (`run(exps, ReduceOptions{})`) still compile.
  struct ReduceOptions {};

  /// The worker count Reduction::run uses:
  /// std::thread::hardware_concurrency(), at least 1.
  static unsigned resolve_threads();

  static Engine resolve_engine() { return Engine::Radix; }

  /// Reduce all events of `exps` (which must share one binary): contiguous
  /// shards of at least 4096 events, at most one per worker, each (shard,
  /// experiment) segment folded by its own IncrementalReducer, then
  /// merge_results over the segments in event order.
  static ReductionResult run(const std::vector<const experiment::Experiment*>& exps,
                             const ReduceOptions& options = {});
};

/// The radix fold state behind IncrementalReducer (defined in
/// reduction.cpp). Caches decisions (per unique event tuple) and paths (per
/// unique callstack+leaf) so the per-event work is a few probes plus dense
/// array adds.
class RadixFolder;

/// Online incremental reduction: the dsprofd streaming path (src/serve/).
///
/// Batches of events are folded into a live ReductionResult as they arrive.
/// This is also the fold Reduction::run runs per (shard, experiment)
/// segment. Because every aggregate accumulates integer weights (u64) —
/// associative and commutative — the result after folding batches [0,a),
/// [a,b), ... [y,n) is bit-identical to one offline reduction over [0,n)
/// for any batching, and per-event EA samples concatenate in event order
/// exactly as the offline segment merge does. That is the serve subsystem's
/// online-vs-offline invariant (DESIGN.md §3.3); tests/serve_test.cpp and
/// the streamed-session integration test enforce it end to end.
///
/// Not thread-safe: one reducer per session, fold() called from a single
/// ingest thread. snapshot() returns a deep copy that Analysis can render
/// views from while folding continues.
class IncrementalReducer {
 public:
  /// `symtab` must outlive the reducer. `counters` supplies the per-event
  /// backtracking flags exactly as an Experiment's counter specs would.
  IncrementalReducer(const sym::SymbolTable& symtab,
                     const std::vector<experiment::CounterSpec>& counters);
  ~IncrementalReducer();
  IncrementalReducer(IncrementalReducer&&) noexcept;
  IncrementalReducer& operator=(IncrementalReducer&&) noexcept;

  /// Fold events [begin, end) of `events` into the live aggregates. The
  /// store must stay alive (and un-moved) only for the duration of the
  /// call; each call re-derives callstack identities, so stores may come
  /// and go between calls (the dsprofd batch decode path).
  void fold(const experiment::EventStore& events, size_t begin, size_t end);

  /// The live aggregates (valid until the next fold()).
  const ReductionResult& result() const { return r_; }

  /// Deep copy of the live aggregates for snapshot rendering.
  ReductionResult snapshot() const { return r_; }

  size_t events_folded() const { return r_.events_reduced; }

 private:
  const sym::SymbolTable* symtab_;
  std::array<bool, machine::kNumHwEvents> backtrack_by_event_{};
  u32 unknown_id_ = 0;
  ReductionResult r_;
  std::unique_ptr<RadixFolder> folder_;  // persistent decision/path caches
};

}  // namespace dsprof::analyze

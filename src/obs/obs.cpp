#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "support/table.hpp"

namespace dsprof::obs {

namespace {

std::atomic<bool> g_enabled{[] {
  const char* env = std::getenv("DSPROF_OBS");
  return !(env != nullptr && env[0] == '0' && env[1] == '\0');
}()};

constexpr size_t bucket_of(u64 v) {
  return v == 0 ? 0 : std::min<size_t>(static_cast<size_t>(std::bit_width(v)),
                                       kHistBuckets - 1);
}

/// Per-thread metric shard. Slots are relaxed atomics: each slot has one
/// writer (its thread) and any number of snapshot readers, so relaxed
/// ordering is sufficient — snapshot() observes a value at least as fresh
/// as the last write that happened-before the snapshot call.
struct Shard {
  std::array<std::atomic<u64>, kMaxCounters> counters{};

  struct Hist {
    std::atomic<u64> count{0};
    std::atomic<u64> sum{0};
    std::array<std::atomic<u64>, kHistBuckets> buckets{};
  };
  std::array<Hist, kMaxHistograms> hists{};

  // Span ring. Records are plain structs, so cross-thread reads take the
  // per-shard mutex; spans are batch/shard-grained (never per-event), so
  // the uncontended lock is noise next to the work being spanned.
  std::mutex span_mu;
  std::array<SpanRecord, kSpanRingCapacity> ring{};
  u64 span_head = 0;  // total spans ever recorded; ring slot = head % cap
  u32 tid = 0;
};

/// Name table for one metric kind: name -> slot index, capacity-checked.
struct NameTable {
  std::vector<std::string> names;
  size_t capacity;

  explicit NameTable(size_t cap) : capacity(cap) {}

  u32 intern(const std::string& name) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<u32>(i);
    }
    DSP_CHECK(names.size() < capacity,
              "obs: metric table full registering '" + name +
                  "' (raise the kMax* capacity in obs.hpp)");
    names.push_back(name);
    return static_cast<u32>(names.size() - 1);
  }
};

struct Registry {
  std::mutex mu;  // registration + shard list; never on the hot path
  NameTable counters{kMaxCounters};
  NameTable gauges{kMaxGauges};
  NameTable histograms{kMaxHistograms};
  NameTable spans{kMaxCounters};  // span names share the counter capacity

  // Gauges are single global slots (last writer wins): an instantaneous
  // value has no meaningful per-thread merge.
  std::array<std::atomic<i64>, kMaxGauges> gauge_values{};

  // A shard is created on a thread's first instrumented call. When the
  // thread exits, its shard goes on the free list and the next thread that
  // records takes it over, tallies and all: snapshots keep summing the
  // exited thread's counts, and short-lived worker threads (one reduce's
  // shards, two per dsprofd session) no longer grow the list. The vector
  // holds stable pointers (unique_ptr).
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<Shard*> free_shards;

  Shard* acquire_shard() {
    std::lock_guard<std::mutex> lock(mu);
    if (!free_shards.empty()) {
      Shard* s = free_shards.back();
      free_shards.pop_back();
      return s;
    }
    shards.push_back(std::make_unique<Shard>());
    shards.back()->tid = static_cast<u32>(shards.size());
    return shards.back().get();
  }

  void release_shard(Shard* s) {
    std::lock_guard<std::mutex> lock(mu);
    free_shards.push_back(s);
  }
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit handlers
  return *r;
}

/// A thread's claim on its shard; the destructor runs at thread exit.
struct ShardLease {
  Shard* s = registry().acquire_shard();
  ~ShardLease() { registry().release_shard(s); }
};

Shard& shard() {
  // The plain pointer outlives the lease, so a probe from a later exit-time
  // destructor on this thread still lands in a live shard; every slot is an
  // atomic add or taken under span_mu, so sharing it with the next owner
  // stays exact.
  thread_local Shard* s = nullptr;
  if (s == nullptr) [[unlikely]] {
    thread_local ShardLease lease;
    s = lease.s;
  }
  return *s;
}

}  // namespace

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Counter counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return Counter{r.counters.intern(name)};
}

Gauge gauge(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return Gauge{r.gauges.intern(name)};
}

Histogram histogram(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return Histogram{r.histograms.intern(name)};
}

SpanName span_name(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return SpanName{r.spans.intern(name)};
}

void Counter::add(u64 delta) const {
  if (!enabled()) return;
  shard().counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::set(i64 v) const {
  if (!enabled()) return;
  registry().gauge_values[id].store(v, std::memory_order_relaxed);
}

void Histogram::record(u64 value) const {
  if (!enabled()) return;
  Shard::Hist& h = shard().hists[id];
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  h.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(SpanName name) : name_(name) {
  if (enabled()) t0_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (t0_ == 0 || !enabled()) return;
  const u64 t1 = now_ns();
  Shard& s = shard();
  std::lock_guard<std::mutex> lock(s.span_mu);
  s.ring[s.span_head % kSpanRingCapacity] = SpanRecord{name_.id, s.tid, t0_, t1};
  s.span_head += 1;
}

ScopedTimer::ScopedTimer(Histogram h) : h_(h) {
  if (enabled()) t0_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (t0_ == 0 || !enabled()) return;
  h_.record(now_ns() - t0_);
}

u64 HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  const u64 target = static_cast<u64>(q * static_cast<double>(count));
  u64 cum = 0;
  for (size_t i = 0; i < kHistBuckets; ++i) {
    cum += buckets[i];
    if (cum > target || (cum == count && cum != 0)) {
      return i + 1 < kHistBuckets ? (u64{1} << i) : ~u64{0};
    }
  }
  return ~u64{0};
}

u64 Snapshot::counter_value(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* Snapshot::histogram_by_name(const std::string& name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

Snapshot snapshot() {
  Registry& r = registry();
  Snapshot out;
  out.was_enabled = enabled();

  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<u64> counter_totals(r.counters.names.size(), 0);
  std::vector<HistogramSnapshot> hist_totals(r.histograms.names.size());
  for (const auto& s : r.shards) {
    for (size_t c = 0; c < counter_totals.size(); ++c) {
      counter_totals[c] += s->counters[c].load(std::memory_order_relaxed);
    }
    for (size_t h = 0; h < hist_totals.size(); ++h) {
      hist_totals[h].count += s->hists[h].count.load(std::memory_order_relaxed);
      hist_totals[h].sum += s->hists[h].sum.load(std::memory_order_relaxed);
      for (size_t b = 0; b < kHistBuckets; ++b) {
        hist_totals[h].buckets[b] +=
            s->hists[h].buckets[b].load(std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> span_lock(s->span_mu);
    out.spans_recorded += s->span_head;
    out.spans_dropped +=
        s->span_head > kSpanRingCapacity ? s->span_head - kSpanRingCapacity : 0;
  }

  for (size_t c = 0; c < counter_totals.size(); ++c) {
    out.counters.emplace_back(r.counters.names[c], counter_totals[c]);
  }
  for (size_t g = 0; g < r.gauges.names.size(); ++g) {
    out.gauges.emplace_back(r.gauges.names[g],
                            r.gauge_values[g].load(std::memory_order_relaxed));
  }
  for (size_t h = 0; h < hist_totals.size(); ++h) {
    out.histograms.emplace_back(r.histograms.names[h], hist_totals[h]);
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

std::vector<SpanRecord> span_records(std::vector<std::string>* names) {
  Registry& r = registry();
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(r.mu);
  if (names != nullptr) *names = r.spans.names;
  for (const auto& s : r.shards) {
    std::lock_guard<std::mutex> span_lock(s->span_mu);
    const u64 kept = std::min<u64>(s->span_head, kSpanRingCapacity);
    for (u64 i = 0; i < kept; ++i) {
      out.push_back(s->ring[(s->span_head - kept + i) % kSpanRingCapacity]);
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns : a.t1_ns < b.t1_ns;
  });
  return out;
}

std::string Snapshot::to_json() const {
  std::string s = "{\"enabled\":";
  s += was_enabled ? "true" : "false";
  s += ",\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) s += ",";
    s += "\"";
    s += json_escape(counters[i].first);
    s += "\":" + std::to_string(counters[i].second);
  }
  s += "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i != 0) s += ",";
    s += "\"";
    s += json_escape(gauges[i].first);
    s += "\":" + std::to_string(gauges[i].second);
  }
  s += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i].second;
    if (i != 0) s += ",";
    s += "\"";
    s += json_escape(histograms[i].first);
    s += "\":{\"count\":" + std::to_string(h.count) + ",\"sum\":" + std::to_string(h.sum) +
         ",\"mean\":" + std::to_string(h.mean()) +
         ",\"p50\":" + std::to_string(h.quantile(0.5)) +
         ",\"p95\":" + std::to_string(h.quantile(0.95)) + ",\"buckets\":[";
    bool first = true;
    for (size_t b = 0; b < kHistBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) s += ",";
      first = false;
      s += "[" + std::to_string(HistogramSnapshot::bucket_floor(b)) + "," +
           std::to_string(h.buckets[b]) + "]";
    }
    s += "]}";
  }
  s += "},\"spans\":{\"recorded\":" + std::to_string(spans_recorded) +
       ",\"dropped\":" + std::to_string(spans_dropped) + "}}";
  return s;
}

std::string Snapshot::to_text() const {
  std::string s = "Self-profile (obs";
  s += was_enabled ? "" : ", DISABLED";
  s += ")\n";
  if (!counters.empty()) {
    s += "  counters:\n";
    for (const auto& [n, v] : counters) {
      s += "    " + n;
      if (n.size() < 36) s += std::string(36 - n.size(), ' ');
      s += " " + std::to_string(v) + "\n";
    }
  }
  if (!gauges.empty()) {
    s += "  gauges:\n";
    for (const auto& [n, v] : gauges) {
      s += "    " + n;
      if (n.size() < 36) s += std::string(36 - n.size(), ' ');
      s += " " + std::to_string(v) + "\n";
    }
  }
  if (!histograms.empty()) {
    s += "  histograms (ns):\n";
    for (const auto& [n, h] : histograms) {
      s += "    " + n;
      if (n.size() < 36) s += std::string(36 - n.size(), ' ');
      s += " count=" + std::to_string(h.count) + " mean=" + std::to_string(h.mean()) +
           " p50<" + std::to_string(h.quantile(0.5)) + " p95<" +
           std::to_string(h.quantile(0.95)) + "\n";
    }
  }
  s += "  spans: recorded=" + std::to_string(spans_recorded) +
       " dropped=" + std::to_string(spans_dropped) + "\n";
  return s;
}

std::string chrome_trace_json() {
  std::vector<std::string> names;
  const std::vector<SpanRecord> recs = span_records(&names);
  std::string s = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < recs.size(); ++i) {
    const SpanRecord& r = recs[i];
    if (i != 0) s += ",";
    s += "{\"name\":\"";
    s += json_escape(r.name < names.size() ? names[r.name] : "?");
    // Timestamps are microseconds; keep nanosecond precision as a fraction.
    s += "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(r.tid) +
         ",\"ts\":" + std::to_string(r.t0_ns / 1000) + "." +
         std::to_string(r.t0_ns % 1000) +
         ",\"dur\":" + std::to_string((r.t1_ns - r.t0_ns) / 1000) + "." +
         std::to_string((r.t1_ns - r.t0_ns) % 1000) + "}";
  }
  s += "]}";
  return s;
}

void reset_for_test() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& g : r.gauge_values) g.store(0, std::memory_order_relaxed);
  for (const auto& s : r.shards) {
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : s->hists) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> span_lock(s->span_mu);
    s->span_head = 0;
  }
}

}  // namespace dsprof::obs


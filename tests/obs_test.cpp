// Tests for the self-observability layer (src/obs/): shard-merge
// determinism, histogram bucketing, span ring wraparound, the
// disabled-is-free contract, and concurrent updates (run these under
// DSPROF_SANITIZE=thread to exercise the lock-free shard path).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

using namespace dsprof;

namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_for_test();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(true);
    obs::reset_for_test();
  }
};

TEST_F(ObsTest, CounterAccumulates) {
  const obs::Counter c = obs::counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(obs::snapshot().counter_value("test.counter"), 42u);
}

TEST_F(ObsTest, InterningReturnsSameHandle) {
  EXPECT_EQ(obs::counter("test.intern").id, obs::counter("test.intern").id);
  EXPECT_EQ(obs::histogram("test.h").id, obs::histogram("test.h").id);
  EXPECT_NE(obs::counter("test.a").id, obs::counter("test.b").id);
}

TEST_F(ObsTest, GaugeLastWriterWins) {
  const obs::Gauge g = obs::gauge("test.gauge");
  g.set(7);
  g.set(-3);
  const obs::Snapshot s = obs::snapshot();
  for (const auto& [name, v] : s.gauges) {
    if (name == "test.gauge") {
      EXPECT_EQ(v, -3);
      return;
    }
  }
  FAIL() << "gauge missing from snapshot";
}

TEST_F(ObsTest, HistogramBucketsAndQuantiles) {
  const obs::Histogram h = obs::histogram("test.hist");
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1: [1,2)
  h.record(2);    // bucket 2: [2,4)
  h.record(3);    // bucket 2
  h.record(100);  // bucket 7: [64,128)
  const obs::Snapshot s = obs::snapshot();
  const obs::HistogramSnapshot* hs = s.histogram_by_name("test.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 5u);
  EXPECT_EQ(hs->sum, 106u);
  EXPECT_EQ(hs->buckets[0], 1u);
  EXPECT_EQ(hs->buckets[1], 1u);
  EXPECT_EQ(hs->buckets[2], 2u);
  EXPECT_EQ(hs->buckets[7], 1u);
  EXPECT_EQ(hs->mean(), 106u / 5u);
  // Quantiles resolve to the bucket's upper bound.
  EXPECT_EQ(hs->quantile(0.5), 4u);     // third value lands in [2,4)
  EXPECT_EQ(hs->quantile(1.0), 128u);   // max lands in [64,128)
  // bucket_floor is the inclusive lower bound.
  EXPECT_EQ(obs::HistogramSnapshot::bucket_floor(0), 0u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_floor(1), 1u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_floor(7), 64u);
}

// The central merge property: per-thread shards merge by integer addition,
// so the snapshot totals are exact and independent of the thread schedule.
TEST_F(ObsTest, ShardMergeIsDeterministicAcrossThreads) {
  const int kThreads = 8;
  const u64 kPerThread = 10000;
  for (int round = 0; round < 2; ++round) {
    obs::reset_for_test();
    std::vector<std::thread> ts;
    ts.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([t] {
        const obs::Counter c = obs::counter("test.merge.counter");
        const obs::Histogram h = obs::histogram("test.merge.hist");
        for (u64 i = 0; i < kPerThread; ++i) {
          c.add();
          h.record(static_cast<u64>(t) * kPerThread + i);
        }
      });
    }
    for (auto& t : ts) t.join();
    const obs::Snapshot s = obs::snapshot();
    EXPECT_EQ(s.counter_value("test.merge.counter"), kThreads * kPerThread);
    const obs::HistogramSnapshot* hs = s.histogram_by_name("test.merge.hist");
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->count, kThreads * kPerThread);
    // sum of 0..N-1 over all threads: exact, schedule-independent.
    const u64 n = kThreads * kPerThread;
    EXPECT_EQ(hs->sum, n * (n - 1) / 2);
  }
}

TEST_F(ObsTest, ExitedThreadShardsAreReused) {
  // Joined short-lived threads hand their shard on to the next thread that
  // records: every tally survives into the snapshot, and all their spans
  // carry the one reused shard's tid.
  const int kThreads = 16;
  const obs::Counter c = obs::counter("test.reuse.counter");
  const obs::SpanName name = obs::span_name("test.reuse.span");
  for (int t = 0; t < kThreads; ++t) {
    std::thread([&] {
      c.add();
      const obs::ScopedSpan span(name);
    }).join();
  }
  EXPECT_EQ(obs::snapshot().counter_value("test.reuse.counter"), u64{kThreads});
  std::vector<std::string> names;
  std::set<u32> tids;
  size_t spans = 0;
  for (const obs::SpanRecord& r : obs::span_records(&names)) {
    if (names[r.name] != "test.reuse.span") continue;
    spans += 1;
    tids.insert(r.tid);
  }
  EXPECT_EQ(spans, size_t{kThreads});
  EXPECT_EQ(tids.size(), 1u);
}

TEST_F(ObsTest, SnapshotIsStableWithoutActivity) {
  obs::counter("test.stable").add(3);
  obs::histogram("test.stable.h").record(17);
  const std::string a = obs::snapshot().to_json();
  const std::string b = obs::snapshot().to_json();
  EXPECT_EQ(a, b);
}

TEST_F(ObsTest, SpanRingRecordsAndWrapsAround) {
  const obs::SpanName name = obs::span_name("test.span");
  { obs::ScopedSpan s(name); }
  obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.spans_recorded, 1u);
  EXPECT_EQ(snap.spans_dropped, 0u);

  // Overfill the ring: capacity is kSpanRingCapacity, so recording 3x the
  // capacity keeps the newest kSpanRingCapacity records and counts the rest
  // as dropped (never blocks, never allocates).
  const u64 total = 3 * obs::kSpanRingCapacity;
  for (u64 i = 1; i < total; ++i) {
    obs::ScopedSpan s(name);
  }
  snap = obs::snapshot();
  EXPECT_EQ(snap.spans_recorded, total);
  EXPECT_EQ(snap.spans_dropped, total - obs::kSpanRingCapacity);

  std::vector<std::string> names;
  const std::vector<obs::SpanRecord> records = obs::span_records(&names);
  EXPECT_EQ(records.size(), obs::kSpanRingCapacity);
  // Sorted by start time, and every record well-formed.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_LT(records[i].name, names.size());
    EXPECT_EQ(names[records[i].name], "test.span");
    EXPECT_LE(records[i].t0_ns, records[i].t1_ns);
    if (i > 0) {
      EXPECT_GE(records[i].t0_ns, records[i - 1].t0_ns);
    }
  }
}

TEST_F(ObsTest, DisabledInstrumentationRecordsNothing) {
  obs::set_enabled(false);
  EXPECT_FALSE(obs::enabled());
  obs::counter("test.off.counter").add(5);
  obs::gauge("test.off.gauge").set(9);
  obs::histogram("test.off.hist").record(123);
  {
    obs::ScopedSpan s(obs::span_name("test.off.span"));
    obs::ScopedTimer t(obs::histogram("test.off.timer"));
  }
  obs::set_enabled(true);
  const obs::Snapshot s = obs::snapshot();
  EXPECT_EQ(s.counter_value("test.off.counter"), 0u);
  EXPECT_EQ(s.spans_recorded, 0u);
  const obs::HistogramSnapshot* hs = s.histogram_by_name("test.off.hist");
  ASSERT_NE(hs, nullptr);  // registered, just never written
  EXPECT_EQ(hs->count, 0u);
}

// A span constructed while disabled must not record on destruction even if
// obs is re-enabled mid-scope (the t0 sentinel contract).
TEST_F(ObsTest, SpanNeverStraddlesEnableFlip) {
  obs::set_enabled(false);
  {
    obs::ScopedSpan s(obs::span_name("test.straddle"));
    obs::set_enabled(true);
  }
  EXPECT_EQ(obs::snapshot().spans_recorded, 0u);
}

TEST_F(ObsTest, ScopedTimerRecordsElapsed) {
  const obs::Histogram h = obs::histogram("test.timer");
  { obs::ScopedTimer t(h); }
  const obs::Snapshot s = obs::snapshot();
  const obs::HistogramSnapshot* hs = s.histogram_by_name("test.timer");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 1u);
}

TEST_F(ObsTest, JsonSnapshotShape) {
  obs::counter("test.json.c").add(2);
  obs::gauge("test.json.g").set(5);
  obs::histogram("test.json.h").record(8);
  { obs::ScopedSpan s(obs::span_name("test.json.s")); }
  const std::string j = obs::snapshot().to_json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(j.find("\"test.json.c\":2"), std::string::npos);
  EXPECT_NE(j.find("\"test.json.g\":5"), std::string::npos);
  EXPECT_NE(j.find("\"test.json.h\""), std::string::npos);
  EXPECT_NE(j.find("\"spans\""), std::string::npos);
  EXPECT_EQ(j.find('\n'), std::string::npos);  // one line, machine-diffable

  const std::string text = obs::snapshot().to_text();
  EXPECT_NE(text.find("test.json.c"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceJsonShape) {
  { obs::ScopedSpan s(obs::span_name("test.trace")); }
  const std::string t = obs::chrome_trace_json();
  EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(t.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(t.find("test.trace"), std::string::npos);
}

// Concurrent counters, gauges, histograms and spans from many threads; the
// interesting assertions are the exact totals, plus data-race freedom under
// DSPROF_SANITIZE=thread. snapshot() runs concurrently with the writers to
// exercise the reader side of the lock-free shards.
TEST_F(ObsTest, ConcurrentUpdatesWithConcurrentSnapshots) {
  const int kThreads = 8;
  const u64 kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)obs::snapshot();
      (void)obs::chrome_trace_json();
    }
  });
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      const obs::Counter c = obs::counter("test.conc.counter");
      const obs::Histogram h = obs::histogram("test.conc.hist");
      const obs::SpanName sp = obs::span_name("test.conc.span");
      const obs::Gauge g = obs::gauge("test.conc.gauge");
      for (u64 i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(i);
        g.set(static_cast<i64>(i));
        if (i % 64 == 0) obs::ScopedSpan s(sp);
      }
    });
  }
  for (auto& t : ts) t.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  const obs::Snapshot s = obs::snapshot();
  EXPECT_EQ(s.counter_value("test.conc.counter"), kThreads * kPerThread);
  const obs::HistogramSnapshot* hs = s.histogram_by_name("test.conc.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, kThreads * kPerThread);
}

}  // namespace

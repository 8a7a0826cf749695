// Checks of the benchmark's arithmetic (stats.hpp). Exits non-zero on the
// first failed check; run by `ctest` in the benchmark's build tree.
#include <cstdio>
#include <cstdlib>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void percentile_needs_ten_samples_beyond_it() {
  using namespace dsbench;
  // 100 samples: p90 is rank 90, with exactly ten samples beyond it.
  check(nearest_rank(100, 90) == 90, "rank of p90 in 100 samples");
  check(samples_beyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  check(samples_beyond(99, 90) == 9, "99 samples leave only 9 beyond p90");
  check(samples_beyond(300, 90) == 30, "300 samples leave 30 beyond p90");
  check(samples_beyond(20, 50) == 10 && samples_beyond(19, 50) == 9, "p50 needs 20 samples");
  check(samples_beyond(1000, 99) == 10 && samples_beyond(999, 99) == 9, "p99 needs 1000 samples");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  check(near(percentile(v, 90), 90), "p90 of 1..100");
  check(near(percentile(v, 50), 50), "p50 of 1..100");
  check(near(percentile(v, 100), 100), "p100 is the maximum");
  check(near(percentile({7.0}, 90), 7), "p90 of one sample");
  check(near(median({3, 1, 2}), 2), "odd median");
  check(near(median({4, 1, 3, 2}), 2.5), "even median");
}

void open_loop_latency_counts_from_due() {
  using namespace dsbench;
  // Requests due every 10 ms; the second one stalls the system for 35 ms.
  // The third was due at 20 ms but could only be sent at 45 ms: its latency
  // includes those 25 ms of waiting, not just its own 2 ms of service.
  const std::vector<OpenLoopSample> s = {
      {0.000, 0.000, 0.002},
      {0.010, 0.010, 0.045},
      {0.020, 0.045, 0.047},
      {0.030, 0.047, 0.049},
  };
  check(near(latency_from_due(s[0]), 0.002), "on-time request");
  check(near(latency_from_due(s[1]), 0.035), "stalled request");
  check(near(latency_from_due(s[2]), 0.027), "request queued behind a stall");
  check(near(latency_from_due(s[3]), 0.019), "second request behind a stall");
  check(near(generator_lateness(s[0]), 0), "generator on time");
  check(near(generator_lateness(s[2]), 0.025), "generator late by the stall");
  check(near(generator_lateness({0.5, 0.4, 0.6}), 0), "early send is not late");
}

void span_self_time_subtracts_covered_children() {
  using namespace dsbench;
  std::vector<Span> spans = {
      {"bench.phase", 0, 100, -1},   // 0: root
      {"collect.run", 10, 60, 0},    // 1: child of 0
      {"serve.send", 20, 30, 1},     // 2: child of 1
      {"serve.send", 25, 40, 1},     // 3: overlaps 2 (another thread)
      {"analyze.reduce", 50, 120, 0},  // 4: outlasts its parent
  };
  const std::vector<int64_t> self = self_times(spans);
  // Root: 100 minus the union of [10,60) and [50,100) = [10,100) -> 10.
  check(self[0] == 10, "root self time");
  // collect.run: 50 minus the union [20,40) -> 30.
  check(self[1] == 30, "overlapping children counted once");
  check(self[2] == 10 && self[3] == 15, "leaf self time is its duration");
  check(self[4] == 70, "a child's own duration is not clipped");

  const auto by_layer = layer_self_seconds(spans);
  check(near(by_layer.at("bench"), 10e-9), "bench layer self time");
  check(near(by_layer.at("serve"), 25e-9), "serve layer sums its spans");
  check(near(by_layer.at("collect"), 30e-9), "collect layer self time");
  check(span_layer("machine.run") == "machine", "layer prefix");
  check(span_layer("bench") == "bench", "name without a dot");
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond_it();
  open_loop_latency_counts_from_due();
  span_self_time_subtracts_covered_children();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::puts("dsbench arithmetic: all checks passed");
  return EXIT_SUCCESS;
}

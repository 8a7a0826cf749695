// The benchmark's own arithmetic, kept apart from the driver so that
// stats_test.cpp can check it: medians and percentiles of timing samples,
// open-loop request timing, and the self time of nested trace spans.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dsbench {

/// Median; the mean of the two middle samples when the count is even.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
/// the smallest rank whose sample has at least p% of the samples at or
/// below it.
inline size_t nearest_rank(size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps 0.9 * 100 from rounding up to rank 91.
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

/// Nearest-rank percentile of `v` (0 for no samples).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

/// How many of `n` samples rank strictly above percentile `p`.
inline size_t samples_beyond(size_t n, double p) { return n - nearest_rank(n, p); }

/// One request of an open-loop generator: due on a fixed schedule, sent
/// when the generator got to it, answered at `done_s` (seconds on one clock).
struct OpenLoopSample {
  double due_s = 0;
  double sent_s = 0;
  double done_s = 0;
};

/// Latency as a user of an open-loop system sees it: from when the request
/// was due, so a stall also charges the requests queued behind it.
inline double latency_from_due(const OpenLoopSample& s) { return s.done_s - s.due_s; }

/// How late the generator sent the request (0 when on time).
inline double generator_lateness(const OpenLoopSample& s) {
  return std::max(0.0, s.sent_s - s.due_s);
}

/// A traced call: `parent` is the index of the enclosing span in the same
/// vector, or -1 for a root. Times are nanoseconds on one steady clock.
struct Span {
  std::string name;  // "<layer>.<operation>", e.g. "collect.run"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// The layer of a span: its name up to the first '.'.
inline std::string span_layer(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (they
/// can run on several threads) and may outlast their parent; only the union
/// of their intervals, clipped to the parent's, is subtracted.
inline std::vector<int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t a = std::max(s.start_ns, p.start_ns);
    const int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[static_cast<size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<int64_t> out(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

/// Self time summed per layer, in seconds.
inline std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = self_times(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i)
    out[span_layer(spans[i].name)] += static_cast<double>(self[i]) * 1e-9;
  return out;
}

}  // namespace dsbench

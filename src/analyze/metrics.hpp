// Metric vocabulary for the analyzer: one metric per hardware event plus
// User CPU time (from clock profiling). Values accumulate the per-sample
// weights (the overflow interval), which estimates the true event count;
// cycle-denominated metrics are rendered as seconds.
#pragma once

#include <array>
#include <string>

#include "machine/counters.hpp"

namespace dsprof::analyze {

inline constexpr size_t kUserCpuMetric = machine::kNumHwEvents;
inline constexpr size_t kNumMetrics = machine::kNumHwEvents + 1;

using MetricVector = std::array<double, kNumMetrics>;

inline void add_to(MetricVector& a, size_t metric, double w) { a[metric] += w; }

inline void add_all(MetricVector& a, const MetricVector& b) {
  for (size_t i = 0; i < kNumMetrics; ++i) a[i] += b[i];
}

/// Display name, e.g. "E$ Stall Cycles", "User CPU".
std::string metric_name(size_t metric);

/// Short name used in feedback files and CLI selection ("ecstall", "ucpu").
std::string metric_short_name(size_t metric);

/// True if the metric counts cycles (rendered as seconds).
bool metric_in_cycles(size_t metric);

/// Parse a short name; throws on unknown.
size_t metric_by_short_name(const std::string& name);

}  // namespace dsprof::analyze

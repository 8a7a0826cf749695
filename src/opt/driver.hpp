// The er_opt closed loop (the automated §3.3 methodology):
//
//   profile baseline -> affinity analysis -> LayoutPlan -> apply + rebuild
//   -> re-profile -> per-metric delta with sampling significance
//
// plus two uninstrumented measure runs (no counters, no truth log) so the
// headline speedup is an end-to-end cycle count, not a profiled estimate.
//
// Significance: a profiled metric total is the sum of n overflow samples,
// each contributing the overflow interval w. Treating sample arrivals as
// Poisson (the intervals are primes precisely so samples decorrelate from
// loop periods), the relative sampling error of a total T built from n
// samples is ~1/sqrt(n), i.e. s.e.(T) ~ T/sqrt(n). A before/after delta is
// flagged significant when |T_b - T_a| exceeds twice the combined error
// sqrt(T_b^2/n_b + T_a^2/n_a) — the clock-sample significance rule applied
// to every present metric (clock samples land under User CPU).
#pragma once

#include "analyze/analysis.hpp"
#include "opt/affinity.hpp"
#include "opt/plan.hpp"
#include "opt/workloads.hpp"

namespace dsprof::opt {

struct DriverOptions {
  /// Rank metric for the affinity analysis and the plan.
  size_t metric = static_cast<size_t>(machine::HwEvent::EC_stall_cycles);
  /// Counter spec override for the profiling runs; empty keeps the
  /// workload's default. More than two counters multiplex (er_opt --hw).
  std::string hw;
  size_t top_lines = 10;
};

/// One metric's before/after comparison from the two profiled runs.
struct MetricDelta {
  size_t metric = 0;
  std::string name;  // short name
  double before = 0, after = 0;
  u64 n_before = 0, n_after = 0;  // sample counts behind the totals
  /// (before - after) / before * 100; positive = improvement.
  double delta_pct = 0;
  /// |before - after| in combined-standard-error units.
  double z = 0;
  bool significant = false;  // z >= 2
};

struct LoopResult {
  std::string workload;
  AffinityReport affinity;
  LayoutPlan plan;
  /// Uninstrumented end-to-end cycles.
  u64 baseline_cycles = 0;
  u64 optimized_cycles = 0;
  double speedup_pct = 0;  // 100 * (1 - optimized/baseline)
  /// Every metric present in the profiles, rank metric first.
  std::vector<MetricDelta> deltas;

  const MetricDelta* delta_for(size_t metric) const;
};

/// Offline half of the loop: analyze an existing profile and plan, without
/// rebuilding anything (er_opt <experiment-dir> mode). `dtlb_entries` feeds
/// the large-page hint; pass 0 when the target machine is unknown.
struct Planned {
  AffinityReport affinity;
  LayoutPlan plan;
};
Planned plan_for(const analyze::Analysis& a, const DriverOptions& opt = {},
                 u32 dtlb_entries = 0);

/// The full closed loop on a builtin workload.
LoopResult run_loop(const Workload& w, const DriverOptions& opt = {});

/// Reports.
std::string loop_to_text(const LoopResult& r);
std::string loop_to_json(const LoopResult& r);

}  // namespace dsprof::opt

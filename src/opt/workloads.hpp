// Builtin closed-loop workloads for er_opt --run: a workload packages
// everything the driver needs to go around the loop — how to build the
// image (baseline, or with a LayoutPlan applied via the module's layout
// hooks), how to set up a run, which machine to run on, and which counters
// to profile with.
//
// The plan's non-module directives map per workload: `align line` becomes
// the allocator/heap-array alignment, `pagesize` becomes the DTLB page size
// of the re-run (the simulated stand-in for -xpagesize_heap).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "machine/cpu.hpp"
#include "opt/plan.hpp"
#include "sym/image.hpp"

namespace dsprof::opt {

struct Workload {
  std::string name;
  std::string description;
  /// Machine the workload targets (profile and measure runs).
  machine::CpuConfig cpu;
  /// Counter spec for the profiling runs ("+ecstall,20011,+ecrm,211").
  std::string hw;
  /// Clock-profiling rate ("hi" / "on" / "off"); keep it on — the driver's
  /// significance test needs clock samples.
  std::string clock = "on";
  /// Build the image; plan == nullptr is the baseline layout.
  std::function<sym::Image(const LayoutPlan* plan)> build;
  /// Pre-run setup (poke the input into simulated memory); may be null.
  std::function<void(machine::Cpu&)> setup;

  /// Machine config for a run under `plan` (applies the page-size hint).
  machine::CpuConfig cpu_for(const LayoutPlan* plan) const;
};

/// The paper's MCF case study on the §3.3 machine regime (bench/opt_speedups);
/// `small` uses the faster scaled-down instance for smokes and tests.
Workload make_mcf_workload(bool small = false);

/// The record-churn microbenchmark (formerly examples/struct_layout_tuning):
/// 8-member record, two hot members 40 bytes apart, prime-stride sweep.
/// The hand-tuned §3.3 fix is hot_a/hot_b packed together + pad to 64.
Workload make_churn_workload();

/// Hand-tuned reference plan for the churn record — what a developer reading
/// the member view would write down. Used by benches/tests to check the
/// planner reproduces (or beats) the manual fix.
LayoutPlan churn_hand_plan();

/// Lookup by CLI name ("mcf", "mcf-small", "churn"); throws on unknown.
Workload workload_by_name(const std::string& name);

}  // namespace dsprof::opt

// LayoutPlan — the serializable artifact at the center of the er_opt closed
// loop (paper §3.3, automated): the affinity analyzer reads a profile, the
// planner emits a LayoutPlan, the applier maps it onto scc::StructDef layout
// hooks, and the driver re-runs the workload to verify the delta.
//
// A plan is deliberately plain data with two write-only encodings
// (line-oriented text for people, JSON for tools). Directives are kept
// sorted by struct name so the same analysis always serializes to the same
// bytes regardless of discovery order or thread count.
#pragma once

#include <string>
#include <vector>

#include "support/common.hpp"

namespace dsprof::opt {

struct AffinityReport;  // affinity.hpp

/// Layout directives for one struct (the paper's two §3.3 fixes plus the
/// alignment that makes padding effective for heap arrays).
struct StructDirective {
  std::string struct_name;
  /// Full member permutation in the new layout order; empty = keep the
  /// current order (pad/align-only directive).
  std::vector<std::string> member_order;
  /// Pad the struct to this size (0 = no padding directive).
  u64 pad_to = 0;
  /// Align heap arrays of this struct to the E$ line (workload-mapped:
  /// mcf's align_heap_arrays, churn's allocator alignment).
  bool align_line = false;
  /// Software-prefetch the streaming sweeps over this struct (workload-
  /// mapped: mcf's prefetch_arc_scan). Set when the static stride
  /// cross-check proves an object-by-object sweep — the §4 prefetch
  /// feedback folded into the loop; pointer chases never get it.
  bool prefetch = false;
  /// One-line planner rationale; serialized for the report, ignored by the
  /// applier.
  std::string note;
};

struct LayoutPlan {
  /// Short name of the metric the plan was ranked by ("ecstall").
  std::string metric;
  /// Large-page request for the heap (§3.3's -xpagesize_heap; 0 = none).
  u64 page_size_hint = 0;
  /// Sorted by struct_name (serialization is deterministic).
  std::vector<StructDirective> structs;

  bool empty() const { return structs.empty() && page_size_hint == 0; }
  const StructDirective* find(const std::string& struct_name) const;
  /// True if any directive asks for E$-line alignment.
  bool wants_align() const;
};

/// Line-oriented text form ("# dsprof layout plan v1" header), for people:
/// er_opt prints it and --plan-out saves it.
std::string plan_to_text(const LayoutPlan& plan);

/// JSON form (one object, schema {"version":1,"metric":...,"structs":[...]}),
/// for tools: er_opt -J.
std::string plan_to_json(const LayoutPlan& plan);

/// The target machine's geometry, as far as the planner needs it.
struct PlanOptions {
  /// E$ line size the pad/align directives target.
  u64 line_size = 512;
  /// DTLB entries for the large-page hint; 0 disables the hint (offline
  /// plans have no machine to read it from).
  u32 dtlb_entries = 0;
};

/// Turn an affinity report into layout directives: greedy co-access
/// clustering orders each hot struct's members (hottest first, then highest
/// affinity to the already-placed set), pad-to-power-of-two when cheap, and
/// E$-line alignment for heap-resident structs whose padded size tiles the
/// line. Purely a function of the report — no profile re-reads — and
/// deterministic: ties in the clustering break by member weight, then by
/// current layout position.
LayoutPlan plan_layout(const AffinityReport& report, const PlanOptions& opt = {});

}  // namespace dsprof::opt

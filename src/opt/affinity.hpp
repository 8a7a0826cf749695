// The er_opt affinity analyzer: turns an Analysis into the evidence the
// layout planner acts on. Three views, all derived from the validated
// per-access samples (Analysis::member_accesses):
//
//  * per-struct member co-access affinity — members whose samples land in
//    the same (callstack, leaf) window are touched together, so they should
//    share an E$ line (the automated version of the paper's §3.3 reading of
//    Figure 7: orientation/basic_arc/pred/child/potential are hot together);
//  * hot E$ lines — the top-N lines by attributed weight, flagged when a
//    line holds samples from more than one struct type or more than one
//    allocation (false-sharing / layout-conflict candidates);
//  * page locality — how many distinct pages (heap pages in particular) the
//    attributed accesses touch, versus the DTLB reach (drives the §3.3
//    large-page hint).
//
// When a static LoopAnalysis is supplied, each struct also carries the
// sa stride summary (streaming sweep vs. pointer chase) as a cross-check:
// a struct swept with stride >= sizeof(struct) benefits from padding to a
// power of two; a pointer-chased struct benefits from member clustering.
#pragma once

#include <string>
#include <vector>

#include "analyze/analysis.hpp"
#include "sa/loops.hpp"

namespace dsprof::opt {

/// One member of a hot struct, in emitted (current layout) order.
struct MemberInfo {
  u32 member = 0;  // emitted index
  std::string name;
  u64 offset = 0;
  u64 size = 0;
  double weight = 0;  // attributed rank-metric weight
};

/// Static-stride cross-check summary for one struct (from sa loop analysis).
struct StrideInfo {
  u32 refs = 0;            // loop memory refs naming the struct
  u32 strided = 0;         // ... with a resolved affine stride
  i64 min_abs_stride = 0;  // smallest nonzero |stride| (0 if none)
  bool streaming = false;  // some ref sweeps whole objects (|stride| >= size)
  u32 max_loop_depth = 0;
};

struct StructReport {
  sym::TypeId sid = sym::kInvalidType;
  std::string name;
  u64 size = 0;
  double total = 0;  // rank-metric weight attributed to the struct
  double share = 0;  // of the struct-category data-space total
  bool heap_resident = false;
  std::vector<MemberInfo> members;
  /// members.size() x members.size() row-major co-access affinity:
  /// aff[i][j] = sum over windows of min(weight_i, weight_j).
  std::vector<double> affinity;
  StrideInfo strides;

  double aff(size_t i, size_t j) const { return affinity[i * members.size() + j]; }
};

struct HotLine {
  u64 addr = 0;  // line base address
  double weight = 0;
  u32 distinct_structs = 0;
  u32 distinct_allocs = 0;
  /// More than one struct type or allocation on the line — a false-sharing /
  /// layout-conflict candidate (the paper's split 120-byte nodes).
  bool shared = false;
  std::vector<std::string> structs;  // names, sorted
};

struct PageReport {
  u64 page_size = 0;
  u32 hot_pages = 0;        // distinct pages with attributed samples
  u32 heap_pages = 0;       // ... of which in the heap
  u64 hot_heap_bytes = 0;   // total size of allocations that received samples
};

/// Structs below this share of the struct-category data-space total are
/// left out of the report, and so out of the plan.
inline constexpr double kMinStructShare = 0.05;

struct AffinityOptions {
  /// Rank metric (default E$ stall cycles, the paper's headline data metric).
  size_t metric = static_cast<size_t>(machine::HwEvent::EC_stall_cycles);
  size_t top_lines = 10;
};

struct AffinityReport {
  size_t metric = 0;
  std::string metric_name;  // short name ("ecstall")
  u32 windows = 0;          // distinct (callstack, leaf) windows seen
  u64 line_size = 0;
  std::vector<StructReport> structs;  // descending by total
  std::vector<HotLine> hot_lines;     // descending by weight
  PageReport pages;
};

/// Run the analyzer. `loops` is optional (offline plans may lack the image's
/// CFG); when present, per-struct stride summaries are filled in.
AffinityReport analyze_affinity(const analyze::Analysis& a,
                                const sa::LoopAnalysis* loops = nullptr,
                                const AffinityOptions& opt = {});

/// Human-readable report (er_opt's default output).
std::string affinity_to_text(const AffinityReport& r);

}  // namespace dsprof::opt

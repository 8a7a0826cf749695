#include "opt/plan.hpp"

#include <algorithm>
#include <sstream>

#include "opt/affinity.hpp"
#include "support/table.hpp"

namespace dsprof::opt {

namespace {

constexpr const char* kTextHeader = "# dsprof layout plan v1";
/// A member is "hot" (clustered to the front) when it carries at least this
/// share of its struct's member weight.
constexpr double kHotMemberShare = 0.01;
/// Pad to the next power of two only when the growth stays within this
/// percentage (node: 120 -> 128 is +6.7%).
constexpr u64 kMaxPadGrowthPct = 34;
/// The large page the heap hint asks for (§3.3's -xpagesize_heap=512K).
constexpr u64 kPageHintSize = 512 * 1024;

u64 next_pow2(u64 v) {
  u64 p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

const StructDirective* LayoutPlan::find(const std::string& struct_name) const {
  for (const auto& d : structs) {
    if (d.struct_name == struct_name) return &d;
  }
  return nullptr;
}

bool LayoutPlan::wants_align() const {
  return std::any_of(structs.begin(), structs.end(),
                     [](const StructDirective& d) { return d.align_line; });
}

std::string plan_to_text(const LayoutPlan& plan) {
  std::ostringstream os;
  os << kTextHeader << "\n";
  if (!plan.metric.empty()) os << "metric " << plan.metric << "\n";
  if (plan.page_size_hint != 0) os << "pagesize " << plan.page_size_hint << "\n";
  for (const auto& d : plan.structs) {
    os << "struct " << d.struct_name << "\n";
    if (!d.member_order.empty()) {
      os << "  order";
      for (const auto& m : d.member_order) os << " " << m;
      os << "\n";
    }
    if (d.pad_to != 0) os << "  pad " << d.pad_to << "\n";
    if (d.align_line) os << "  align line\n";
    if (d.prefetch) os << "  prefetch\n";
    if (!d.note.empty()) os << "  note " << d.note << "\n";
    os << "end\n";
  }
  return os.str();
}

std::string plan_to_json(const LayoutPlan& plan) {
  std::ostringstream os;
  os << "{\"version\":1,\"metric\":\"" << json_escape(plan.metric)
     << "\",\"page_size_hint\":" << plan.page_size_hint << ",\"structs\":[";
  for (size_t i = 0; i < plan.structs.size(); ++i) {
    const auto& d = plan.structs[i];
    if (i) os << ",";
    os << "{\"name\":\"" << json_escape(d.struct_name) << "\",\"order\":[";
    for (size_t j = 0; j < d.member_order.size(); ++j) {
      if (j) os << ",";
      os << "\"" << json_escape(d.member_order[j]) << "\"";
    }
    os << "],\"pad_to\":" << d.pad_to
       << ",\"align_line\":" << (d.align_line ? "true" : "false")
       << ",\"prefetch\":" << (d.prefetch ? "true" : "false") << ",\"note\":\""
       << json_escape(d.note) << "\"}";
  }
  os << "]}";
  return os.str();
}

LayoutPlan plan_layout(const AffinityReport& report, const PlanOptions& opt) {
  LayoutPlan plan;
  plan.metric = report.metric_name;

  // The report already left out structs below kMinStructShare.
  for (const auto& sr : report.structs) {
    const size_t n = sr.members.size();
    if (n == 0) continue;

    double wsum = 0;
    for (const auto& m : sr.members) wsum += m.weight;

    // Hot set: members carrying a meaningful share of the struct's weight.
    std::vector<size_t> hot;
    for (size_t i = 0; i < n; ++i) {
      if (wsum > 0 && sr.members[i].weight >= kHotMemberShare * wsum) {
        hot.push_back(i);
      }
    }

    // Greedy affinity clustering: seed with the hottest member, then grow by
    // strongest total affinity to the already-placed prefix. Ties break by
    // weight, then by current layout position — fully deterministic.
    std::vector<size_t> order;
    std::vector<bool> placed(n, false);
    if (!hot.empty()) {
      size_t seed = hot[0];
      for (size_t i : hot) {
        if (sr.members[i].weight > sr.members[seed].weight) seed = i;
      }
      order.push_back(seed);
      placed[seed] = true;
      while (order.size() < hot.size()) {
        size_t best = static_cast<size_t>(-1);
        double best_aff = -1;
        for (size_t c : hot) {
          if (placed[c]) continue;
          double aff = 0;
          for (size_t p : order) aff += sr.aff(p, c);
          const bool better =
              best == static_cast<size_t>(-1) || aff > best_aff ||
              (aff == best_aff && sr.members[c].weight > sr.members[best].weight);
          if (better) {
            best = c;
            best_aff = aff;
          }
        }
        order.push_back(best);
        placed[best] = true;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (!placed[i]) order.push_back(i);  // cold tail keeps layout order
    }

    StructDirective d;
    d.struct_name = sr.name;
    bool reordered = false;
    for (size_t i = 0; i < n; ++i) {
      if (order[i] != i) reordered = true;
    }
    if (reordered) {
      for (size_t i : order) d.member_order.push_back(sr.members[i].name);
    }

    // Pad to the next power of two when the growth is cheap, so padded
    // objects tile E$ lines instead of straddling them (§3.3: 120 -> 128).
    u64 padded = sr.size;
    if (!is_pow2(sr.size)) {
      const u64 p2 = next_pow2(sr.size);
      if ((p2 - sr.size) * 100 <= sr.size * kMaxPadGrowthPct) {
        d.pad_to = p2;
        padded = p2;
      }
    }
    // Alignment makes the padding effective for heap arrays: only useful
    // when whole objects tile the line (or span whole lines).
    if (sr.heap_resident &&
        (opt.line_size % padded == 0 || padded % opt.line_size == 0)) {
      d.align_line = true;
    }
    // §4 prefetch feedback, static half: a proven object-by-object sweep can
    // be prefetched ahead; pointer chases (no resolved stride) cannot.
    if (sr.strides.streaming) d.prefetch = true;

    std::ostringstream note;
    note << "hot " << hot.size() << "/" << n << " members, "
         << static_cast<u64>(sr.share * 100 + 0.5) << "% of " << report.metric_name;
    if (d.pad_to != 0) note << "; pad " << sr.size << "->" << d.pad_to;
    if (d.prefetch) note << "; streaming sweep -> prefetch";
    d.note = note.str();

    if (!d.member_order.empty() || d.pad_to != 0 || d.align_line || d.prefetch) {
      plan.structs.push_back(std::move(d));
    }
  }

  std::sort(plan.structs.begin(), plan.structs.end(),
            [](const StructDirective& a, const StructDirective& b) {
              return a.struct_name < b.struct_name;
            });

  // §3.3 optimization 2: large pages when the hot heap footprint outruns the
  // DTLB reach (entries * page size).
  if (opt.dtlb_entries > 0 &&
      report.pages.heap_pages > opt.dtlb_entries) {
    plan.page_size_hint = kPageHintSize;
  }
  return plan;
}

}  // namespace dsprof::opt

#include "opt/affinity.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace dsprof::opt {

namespace {

/// Index of the allocation containing `ea`, or npos.
size_t find_alloc(const std::vector<machine::AllocRecord>& allocs, u64 ea) {
  // allocations() is in allocation order; bases are increasing (bump
  // allocator), so binary search on addr.
  size_t lo = 0, hi = allocs.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (allocs[mid].addr <= ea) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return static_cast<size_t>(-1);
  const auto& a = allocs[lo - 1];
  if (ea >= a.addr && ea < a.addr + a.size) return lo - 1;
  return static_cast<size_t>(-1);
}

StrideInfo summarize_strides(const std::vector<sa::StructStride>& strides,
                             sym::TypeId sid, u64 struct_size) {
  StrideInfo s;
  for (const auto& st : strides) {
    if (st.sid != sid) continue;
    ++s.refs;
    s.max_loop_depth = std::max(s.max_loop_depth, st.loop_depth);
    if (!st.has_stride || st.stride == 0) continue;
    ++s.strided;
    const i64 mag = st.stride < 0 ? -st.stride : st.stride;
    if (s.min_abs_stride == 0 || mag < s.min_abs_stride) s.min_abs_stride = mag;
    if (static_cast<u64>(mag) >= struct_size) s.streaming = true;
  }
  return s;
}

}  // namespace

AffinityReport analyze_affinity(const analyze::Analysis& a,
                                const sa::LoopAnalysis* loops,
                                const AffinityOptions& opt) {
  AffinityReport r;
  r.metric = opt.metric;
  r.metric_name = analyze::metric_short_name(opt.metric);
  const analyze::Analysis::MemberAccesses accesses = a.member_accesses();
  r.windows = accesses.windows;
  r.line_size = a.ec_line_size();

  const auto& types = a.symtab().types();
  const auto& allocs = a.allocations();
  const u64 heap_base = a.image().heap_base;

  std::vector<sa::StructStride> strides;
  if (loops != nullptr) strides = sa::export_struct_strides(*loops, a.symtab());

  // --- hot structs, ranked by the data-object view -------------------------
  const auto objects = a.data_objects(opt.metric);
  double struct_total = 0;
  for (const auto& row : objects) {
    if (row.cat == analyze::DataCat::Struct) struct_total += row.mv[opt.metric];
  }
  for (const auto& row : objects) {
    if (row.cat != analyze::DataCat::Struct) continue;
    const double w = row.mv[opt.metric];
    if (w <= 0 || struct_total <= 0) continue;
    const double share = w / struct_total;
    if (share < kMinStructShare) continue;

    const auto& type = types.get(row.sid);
    StructReport sr;
    sr.sid = row.sid;
    sr.name = type.name;
    sr.size = type.size;
    sr.total = w;
    sr.share = share;
    for (u32 m = 0; m < type.members.size(); ++m) {
      MemberInfo mi;
      mi.member = m;
      mi.name = type.members[m].name;
      mi.offset = type.members[m].offset;
      mi.size = type.members[m].size;
      sr.members.push_back(std::move(mi));
    }
    sr.affinity.assign(sr.members.size() * sr.members.size(), 0.0);
    sr.strides = summarize_strides(strides, row.sid, sr.size);
    r.structs.push_back(std::move(sr));
  }
  // data_objects is already descending by metric; keep that order but make
  // ties deterministic by name.
  std::stable_sort(r.structs.begin(), r.structs.end(),
                   [](const StructReport& x, const StructReport& y) {
                     if (x.total != y.total) return x.total > y.total;
                     return x.name < y.name;
                   });

  std::map<sym::TypeId, size_t> by_sid;
  for (size_t i = 0; i < r.structs.size(); ++i) by_sid[r.structs[i].sid] = i;

  // --- member weights + per-window co-access affinity ----------------------
  // window -> (struct report index, member) -> weight, for the rank metric.
  std::map<u32, std::map<std::pair<size_t, u32>, double>> windows;
  for (const auto& s : accesses.samples) {
    auto it = by_sid.find(s.sid);
    if (it == by_sid.end()) continue;
    StructReport& sr = r.structs[it->second];
    if (s.member >= sr.members.size()) continue;  // stale descriptor; ignore
    if (s.metric != opt.metric) continue;
    const double w = static_cast<double>(s.weight);
    sr.members[s.member].weight += w;
    windows[s.window][{it->second, s.member}] += w;
    if (s.has_ea && s.ea >= heap_base) sr.heap_resident = true;
  }
  for (const auto& [win, entries] : windows) {
    (void)win;
    for (auto i = entries.begin(); i != entries.end(); ++i) {
      for (auto j = std::next(i); j != entries.end(); ++j) {
        if (i->first.first != j->first.first) continue;  // same struct only
        StructReport& sr = r.structs[i->first.first];
        const u32 mi = i->first.second, mj = j->first.second;
        const double v = std::min(i->second, j->second);
        sr.affinity[mi * sr.members.size() + mj] += v;
        sr.affinity[mj * sr.members.size() + mi] += v;
      }
    }
  }

  // --- hot E$ lines + page locality ----------------------------------------
  struct LineAgg {
    double weight = 0;
    std::set<sym::TypeId> sids;
    std::set<size_t> alloc_idx;
  };
  std::map<u64, LineAgg> lines;
  std::set<u64> pages, heap_pages;
  std::set<size_t> hot_allocs;
  const u64 page_size = a.page_size();
  for (const auto& s : accesses.samples) {
    if (!s.has_ea) continue;
    if (s.metric == opt.metric) {
      LineAgg& la = lines[s.ea / r.line_size * r.line_size];
      la.weight += static_cast<double>(s.weight);
      la.sids.insert(s.sid);
      const size_t ai = find_alloc(allocs, s.ea);
      if (ai != static_cast<size_t>(-1)) {
        la.alloc_idx.insert(ai);
        hot_allocs.insert(ai);
      }
    }
    pages.insert(s.ea / page_size);
    if (s.ea >= heap_base) heap_pages.insert(s.ea / page_size);
  }
  for (const auto& [addr, la] : lines) {
    HotLine hl;
    hl.addr = addr;
    hl.weight = la.weight;
    hl.distinct_structs = static_cast<u32>(la.sids.size());
    hl.distinct_allocs = static_cast<u32>(la.alloc_idx.size());
    hl.shared = hl.distinct_structs > 1 || hl.distinct_allocs > 1;
    for (sym::TypeId sid : la.sids) {
      if (sid != sym::kInvalidType) hl.structs.push_back(types.get(sid).name);
    }
    std::sort(hl.structs.begin(), hl.structs.end());
    r.hot_lines.push_back(std::move(hl));
  }
  std::stable_sort(r.hot_lines.begin(), r.hot_lines.end(),
                   [](const HotLine& x, const HotLine& y) {
                     if (x.weight != y.weight) return x.weight > y.weight;
                     return x.addr < y.addr;
                   });
  if (r.hot_lines.size() > opt.top_lines) r.hot_lines.resize(opt.top_lines);

  r.pages.page_size = page_size;
  r.pages.hot_pages = static_cast<u32>(pages.size());
  r.pages.heap_pages = static_cast<u32>(heap_pages.size());
  for (size_t ai : hot_allocs) r.pages.hot_heap_bytes += allocs[ai].size;
  return r;
}

std::string affinity_to_text(const AffinityReport& r) {
  std::ostringstream os;
  os << "Affinity report (metric: " << r.metric_name << ", " << r.windows
     << " windows)\n";
  for (const auto& s : r.structs) {
    os << "\nstruct " << s.name << "  size " << s.size << "  weight "
       << static_cast<u64>(s.total) << "  share "
       << static_cast<u64>(s.share * 100 + 0.5) << "%"
       << (s.heap_resident ? "  heap" : "") << "\n";
    if (s.strides.refs > 0) {
      os << "  static: " << s.strides.strided << "/" << s.strides.refs
         << " loop refs strided";
      if (s.strides.min_abs_stride != 0) {
        os << ", min |stride| " << s.strides.min_abs_stride;
      }
      if (s.strides.streaming) os << ", streaming";
      os << "\n";
    }
    for (const auto& m : s.members) {
      os << "    +" << m.offset << "\t" << m.name << "\t"
         << static_cast<u64>(m.weight) << "\n";
    }
  }
  if (!r.hot_lines.empty()) {
    os << "\nHot E$ lines (" << r.line_size << " B):\n";
    for (const auto& hl : r.hot_lines) {
      os << "  0x" << std::hex << hl.addr << std::dec << "\t"
         << static_cast<u64>(hl.weight) << "\t" << hl.distinct_structs
         << " structs, " << hl.distinct_allocs << " allocs"
         << (hl.shared ? "  SHARED" : "") << "\n";
    }
  }
  os << "\nPages: " << r.pages.hot_pages << " hot (" << r.pages.heap_pages
     << " heap), page size " << r.pages.page_size << ", hot heap bytes "
     << r.pages.hot_heap_bytes << "\n";
  return os.str();
}

}  // namespace dsprof::opt

#include "analyze/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "isa/isa.hpp"

namespace dsprof::analyze {

// reduction.cpp mirrors these category values as plain integers; keep the
// public enum pinned to them.
static_assert(static_cast<u8>(DataCat::Struct) == 0);
static_assert(static_cast<u8>(DataCat::Scalars) == 1);
static_assert(static_cast<u8>(DataCat::Unspecified) == 2);
static_assert(static_cast<u8>(DataCat::Unresolvable) == 3);
static_assert(static_cast<u8>(DataCat::Unascertainable) == 4);
static_assert(static_cast<u8>(DataCat::Unidentified) == 5);
static_assert(static_cast<u8>(DataCat::Unverifiable) == 6);

const char* data_cat_name(DataCat c) {
  switch (c) {
    case DataCat::Struct: return "";
    case DataCat::Scalars: return "<Scalars>";
    case DataCat::Unspecified: return "(Unspecified)";
    case DataCat::Unresolvable: return "(Unresolvable)";
    case DataCat::Unascertainable: return "(Unascertainable)";
    case DataCat::Unidentified: return "(Unidentified)";
    case DataCat::Unverifiable: return "(Unverifiable)";
  }
  return "?";
}

bool data_cat_is_unknown(DataCat c) {
  return c == DataCat::Unspecified || c == DataCat::Unresolvable ||
         c == DataCat::Unascertainable || c == DataCat::Unidentified ||
         c == DataCat::Unverifiable;
}

Analysis::Analysis(std::vector<const experiment::Experiment*> exps)
    : exps_(std::move(exps)) {
  DSP_CHECK(!exps_.empty(), "no experiments to analyze");
  image_ = &exps_[0]->image;
  clock_hz_ = exps_[0]->clock_hz;
  page_size_ = exps_[0]->page_size;
  ec_line_size_ = exps_[0]->ec_line_size;
  for (const auto* ex : exps_) {
    DSP_CHECK(ex->image.text_words == image_->text_words && ex->image.entry == image_->entry,
              "experiments must come from the same binary");
    if (run_cycles_ == 0) {
      run_cycles_ = ex->total_cycles;
      run_instructions_ = ex->total_instructions;
    }
    if (allocations_.empty()) allocations_ = ex->allocations;
  }
  compute_scales();
}

void Analysis::compute_scales() {
  // Renormalization (paper §2.2 sampling model, extended to time-sliced
  // counter sets): a multiplexed counter observes only the slices its set
  // was live, so its sampled aggregates estimate live_cycles worth of the
  // run. Scaling by total/live — summed across experiments that collected
  // the metric — extrapolates to the full run. A counter live for the whole
  // run (every counter of a non-multiplexed experiment, and the clock, which
  // never rotates) gets exactly 1.0: multiplying a double by 1.0 is
  // bit-identical, which is what keeps pre-multiplexing outputs byte-exact.
  std::array<u64, kNumMetrics> tot{};
  std::array<u64, kNumMetrics> live{};
  for (const auto* ex : exps_) {
    mpx_ = mpx_ || ex->multiplexed();
    if (ex->clock_interval != 0) {
      tot[kUserCpuMetric] += ex->total_cycles;
      live[kUserCpuMetric] += ex->total_cycles;
    }
    for (const auto& c : ex->counters) {
      const auto m = static_cast<size_t>(c.event);
      tot[m] += ex->total_cycles;
      live[m] += ex->multiplexed() && c.set < ex->slices.size()
                     ? ex->slices[c.set].live_cycles
                     : ex->total_cycles;
    }
  }
  for (size_t m = 0; m < kNumMetrics; ++m) {
    scale_[m] = (live[m] == 0 || tot[m] == live[m])
                    ? 1.0
                    : static_cast<double>(tot[m]) / static_cast<double>(live[m]);
  }
}

MetricVector Analysis::scaled(const MetricCounts& c) const {
  MetricVector v{};
  for (size_t i = 0; i < kNumMetrics; ++i) v[i] = static_cast<double>(c[i]) * scale_[i];
  return v;
}

double Analysis::metric_stderr(size_t metric) const {
  const u64 n = sample_counts()[metric];
  if (n == 0) return 0.0;
  u64 interval = 0;
  for (const auto* ex : exps_) {
    if (metric == kUserCpuMetric) {
      interval = ex->clock_interval;
    } else {
      for (const auto& c : ex->counters) {
        if (static_cast<size_t>(c.event) == metric) {
          interval = c.interval;
          break;
        }
      }
    }
    if (interval != 0) break;
  }
  return scale_[metric] * static_cast<double>(interval) *
         std::sqrt(static_cast<double>(n));
}

Analysis::Analysis(const experiment::Experiment& ex, ReductionResult precomputed)
    : Analysis(std::vector<const experiment::Experiment*>{&ex}, std::move(precomputed)) {}

Analysis::Analysis(std::vector<const experiment::Experiment*> exps,
                   ReductionResult precomputed)
    : Analysis(std::move(exps)) {
  // The dsprofd snapshot path: adopt the live aggregates of an
  // IncrementalReducer (or a merge_results over several) instead of
  // re-reducing on first view access. The rendering experiments hold no
  // events here, so the sampling-error n comes from the reduction itself —
  // fold() tallied the same per-metric counts an offline scan of the
  // events would.
  r_ = std::make_unique<ReductionResult>(std::move(precomputed));
  total_ = scaled(r_->total);
  data_total_ = scaled(r_->data_total);
  sample_counts_cache_ = r_->sample_counts;
}

const ReductionResult& Analysis::reduce_locked() const {
  if (!r_) {
    r_ = std::make_unique<ReductionResult>(Reduction::run(exps_));
    total_ = scaled(r_->total);
    data_total_ = scaled(r_->data_total);
  }
  return *r_;
}

const ReductionResult& Analysis::reduce() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reduce_locked();
}

const std::array<bool, kNumMetrics>& Analysis::present() const { return reduce().present; }

const MetricVector& Analysis::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  reduce_locked();
  return total_;
}

const MetricVector& Analysis::data_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  reduce_locked();
  return data_total_;
}

const std::string& Analysis::func_name(u32 id) const { return r_->func_names[id]; }

// ---------------------------------------------------------------------------
// Code-space views

const std::vector<Analysis::FunctionRow>& Analysis::functions(size_t sort_metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = functions_cache_.find(sort_metric);
  if (it != functions_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  std::vector<FunctionRow> rows;
  rows.reserve(r.func.size());
  for (const auto& e : r.func.entries()) {
    rows.push_back({func_name(static_cast<u32>(e.key)), scaled(e.value)});
  }
  std::sort(rows.begin(), rows.end(), [&](const FunctionRow& a, const FunctionRow& b) {
    if (a.mv[sort_metric] != b.mv[sort_metric]) return a.mv[sort_metric] > b.mv[sort_metric];
    return a.name < b.name;
  });
  return functions_cache_.emplace(sort_metric, std::move(rows)).first->second;
}

const std::vector<Analysis::FunctionRow>& Analysis::functions_inclusive(
    size_t sort_metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inclusive_cache_.find(sort_metric);
  if (it != inclusive_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  std::vector<FunctionRow> rows;
  rows.reserve(r.incl.size());
  for (const auto& e : r.incl.entries()) {
    rows.push_back({func_name(static_cast<u32>(e.key)), scaled(e.value)});
  }
  std::sort(rows.begin(), rows.end(), [&](const FunctionRow& a, const FunctionRow& b) {
    if (a.mv[sort_metric] != b.mv[sort_metric]) return a.mv[sort_metric] > b.mv[sort_metric];
    return a.name < b.name;
  });
  return inclusive_cache_.emplace(sort_metric, std::move(rows)).first->second;
}

const std::vector<Analysis::EdgeRow>& Analysis::callers_of(const std::string& function) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = callers_cache_.find(function);
  if (it != callers_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  std::vector<EdgeRow> rows;
  for (const auto& e : r.edge.entries()) {
    const u32 callee = static_cast<u32>(e.key & 0xffffffffu);
    if (func_name(callee) == function) {
      rows.push_back({func_name(static_cast<u32>(e.key >> 32)), scaled(e.value)});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const EdgeRow& a, const EdgeRow& b) { return a.name < b.name; });
  return callers_cache_.emplace(function, std::move(rows)).first->second;
}

const std::vector<Analysis::EdgeRow>& Analysis::callees_of(const std::string& function) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = callees_cache_.find(function);
  if (it != callees_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  std::vector<EdgeRow> rows;
  for (const auto& e : r.edge.entries()) {
    const u32 caller = static_cast<u32>(e.key >> 32);
    if (func_name(caller) == function) {
      rows.push_back(
          {func_name(static_cast<u32>(e.key & 0xffffffffu)), scaled(e.value)});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const EdgeRow& a, const EdgeRow& b) { return a.name < b.name; });
  return callees_cache_.emplace(function, std::move(rows)).first->second;
}

const std::vector<Analysis::PcRow>& Analysis::pcs(size_t sort_metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pcs_cache_.find(sort_metric);
  if (it != pcs_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  std::vector<PcRow> rows;
  rows.reserve(r.pc.size());
  for (const auto& e : r.pc.entries()) {
    rows.push_back({e.key >> 1, (e.key & 1) != 0, scaled(e.value)});
  }
  std::sort(rows.begin(), rows.end(), [&](const PcRow& a, const PcRow& b) {
    if (a.mv[sort_metric] != b.mv[sort_metric]) return a.mv[sort_metric] > b.mv[sort_metric];
    if (a.pc != b.pc) return a.pc < b.pc;
    return a.artificial < b.artificial;
  });
  return pcs_cache_.emplace(sort_metric, std::move(rows)).first->second;
}

std::string Analysis::pc_name(u64 pc) const {
  const sym::FuncInfo* f = image_->symtab.find_function(pc);
  char buf[64];
  if (f) {
    std::snprintf(buf, sizeof buf, "%s + 0x%08llX", f->name.c_str(),
                  static_cast<unsigned long long>(pc - f->lo));
    return buf;
  }
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(pc));
  return buf;
}

const std::vector<Analysis::LineRow>& Analysis::annotated_source(
    const std::string& function) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = source_cache_.find(function);
  if (it != source_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  const sym::SymbolTable& st = image_->symtab;
  const sym::FuncInfo* fi = nullptr;
  for (const auto& f : st.functions()) {
    if (f.name == function) fi = &f;
  }
  DSP_CHECK(fi != nullptr, "no such function: " + function);

  // Line range covered by the function's instructions.
  u32 lo = ~u32{0}, hi = 0;
  for (u64 pc = fi->lo; pc < fi->hi; pc += 4) {
    if (auto l = st.line_for(pc)) {
      lo = std::min(lo, *l);
      hi = std::max(hi, *l);
    }
  }
  std::vector<LineRow> rows;
  if (hi != 0) {
    for (u32 line = lo; line <= hi; ++line) {
      LineRow row;
      row.line = line;
      if (const std::string* text = st.source_text(line)) row.text = *text;
      if (const MetricCounts* c = r.line.find(line)) row.mv = scaled(*c);
      rows.push_back(std::move(row));
    }
  }
  return source_cache_.emplace(function, std::move(rows)).first->second;
}

const std::vector<Analysis::DisasmRow>& Analysis::annotated_disassembly(
    const std::string& function) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = disasm_cache_.find(function);
  if (it != disasm_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  const sym::SymbolTable& st = image_->symtab;
  const sym::FuncInfo* fi = nullptr;
  for (const auto& f : st.functions()) {
    if (f.name == function) fi = &f;
  }
  DSP_CHECK(fi != nullptr, "no such function: " + function);

  std::vector<DisasmRow> rows;
  for (u64 pc = fi->lo; pc < fi->hi; pc += 4) {
    // Artificial branch-target row first (paper Figure 4's starred lines).
    if (auto t = st.branch_target_in(pc - 1, pc)) {
      if (*t == pc) {
        DisasmRow row;
        row.pc = pc;
        row.artificial = true;
        row.line = st.line_for(pc).value_or(0);
        row.text = "<branch target>";
        if (const MetricCounts* c = r.pc.find((pc << 1) | 1)) row.mv = scaled(*c);
        rows.push_back(std::move(row));
      }
    }
    DisasmRow row;
    row.pc = pc;
    row.line = st.line_for(pc).value_or(0);
    const u64 idx = (pc - image_->text_base) / 4;
    row.text = isa::disassemble(isa::decode(image_->text_words[idx]), pc);
    row.data_annot = st.memref_string(pc);
    if (const MetricCounts* c = r.pc.find(pc << 1)) row.mv = scaled(*c);
    rows.push_back(std::move(row));
  }
  return disasm_cache_.emplace(function, std::move(rows)).first->second;
}

// ---------------------------------------------------------------------------
// Data-space views

const std::vector<Analysis::DataObjectRow>& Analysis::data_objects(size_t sort_metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = data_objects_cache_.find(sort_metric);
  if (it != data_objects_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  std::vector<DataObjectRow> rows;
  rows.reserve(r.data.size());
  for (const auto& e : r.data.entries()) {
    DataObjectRow row;
    row.cat = static_cast<DataCat>(e.key >> 32);
    row.sid = static_cast<sym::TypeId>(e.key & 0xffffffffu);
    row.mv = scaled(e.value);
    if (row.cat == DataCat::Struct) {
      row.name = image_->symtab.types().aggregate_string(row.sid);
    } else {
      row.name = data_cat_name(row.cat);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [&](const DataObjectRow& a, const DataObjectRow& b) {
    if (a.mv[sort_metric] != b.mv[sort_metric]) return a.mv[sort_metric] > b.mv[sort_metric];
    return a.name < b.name;
  });
  return data_objects_cache_.emplace(sort_metric, std::move(rows)).first->second;
}

const std::vector<Analysis::MemberRow>& Analysis::members(const std::string& struct_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = members_cache_.find(struct_name);
  if (it != members_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  const sym::TypeTable& tt = image_->symtab.types();
  const sym::TypeId sid = tt.find_struct(struct_name);
  DSP_CHECK(sid != sym::kInvalidType, "no such struct: " + struct_name);
  const sym::Type& t = tt.get(sid);

  std::vector<MemberRow> rows;
  for (u32 m = 0; m < t.members.size(); ++m) {
    const sym::Member& mem = t.members[m];
    MemberRow row;
    row.member = m;
    row.offset = mem.offset;
    row.name = "+" + std::to_string(mem.offset) + ". {" + tt.type_string(mem.type) + " " +
               mem.name + "}";
    if (const MetricCounts* c = r.member.find((u64{sid} << 32) | m)) {
      row.mv = scaled(*c);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const MemberRow& a, const MemberRow& b) { return a.offset < b.offset; });
  return members_cache_.emplace(struct_name, std::move(rows)).first->second;
}

const std::vector<Analysis::EffectivenessRow>& Analysis::effectiveness() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (effectiveness_cache_) return *effectiveness_cache_;
  const ReductionResult& r = reduce_locked();
  std::vector<EffectivenessRow> rows;
  for (size_t metric = 0; metric < machine::kNumHwEvents; ++metric) {
    if (!r.present[metric]) continue;
    EffectivenessRow row;
    row.metric = metric;
    for (const auto& e : r.data.entries()) {
      const auto cat = static_cast<DataCat>(e.key >> 32);
      // Scaled like every other view; the effectiveness ratio itself is
      // scale-invariant (numerator and denominator share the factor).
      row.total += static_cast<double>(e.value[metric]) * scale_[metric];
      if (cat == DataCat::Unresolvable || cat == DataCat::Unascertainable ||
          cat == DataCat::Unverifiable) {
        row.unresolved += static_cast<double>(e.value[metric]) * scale_[metric];
      }
    }
    if (row.total > 0) rows.push_back(row);
  }
  effectiveness_cache_ = std::move(rows);
  return *effectiveness_cache_;
}

// ---------------------------------------------------------------------------
// Address-space views

namespace {

const char* classify_segment(const sym::Image& img, u64 ea) {
  if (ea >= img.text_base && ea < img.text_base + img.text_size()) return "text";
  if (ea >= img.data_base && ea < img.data_base + std::max(img.data_size, u64{8})) return "data";
  if (ea >= img.heap_base && ea < img.heap_base + img.heap_size) return "heap";
  if (ea >= mem::kStackTop - mem::kStackSize && ea < mem::kStackTop + 0x4000) return "stack";
  return "other";
}

}  // namespace

const std::vector<Analysis::AddrRow>& Analysis::segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (segments_cache_) return *segments_cache_;
  const ReductionResult& r = reduce_locked();
  std::map<std::string, MetricVector> acc;
  for (const auto& s : r.ea_samples) {
    add_to(acc[classify_segment(*image_, s.ea)], s.metric, s.w * scale_[s.metric]);
  }
  std::vector<AddrRow> rows;
  for (const auto& [name, mv] : acc) rows.push_back({name, 0, mv});
  segments_cache_ = std::move(rows);
  return *segments_cache_;
}

const std::vector<Analysis::AddrRow>& Analysis::pages(size_t sort_metric, size_t top_n) const {
  const auto key = std::make_pair(sort_metric, top_n);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_cache_.find(key);
  if (it != pages_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  std::map<u64, MetricVector> acc;
  for (const auto& s : r.ea_samples) {
    add_to(acc[s.ea / page_size_ * page_size_], s.metric, s.w * scale_[s.metric]);
  }
  std::vector<AddrRow> rows;
  for (const auto& [page, mv] : acc) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(page));
    rows.push_back({buf, page, mv});
  }
  std::sort(rows.begin(), rows.end(), [&](const AddrRow& a, const AddrRow& b) {
    return a.mv[sort_metric] > b.mv[sort_metric];
  });
  if (rows.size() > top_n) rows.resize(top_n);
  return pages_cache_.emplace(key, std::move(rows)).first->second;
}

const std::vector<Analysis::AddrRow>& Analysis::cache_lines(size_t sort_metric,
                                                            size_t top_n) const {
  const auto key = std::make_pair(sort_metric, top_n);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_lines_cache_.find(key);
  if (it != cache_lines_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  std::map<u64, MetricVector> acc;
  for (const auto& s : r.ea_samples) {
    add_to(acc[s.ea / ec_line_size_ * ec_line_size_], s.metric, s.w * scale_[s.metric]);
  }
  std::vector<AddrRow> rows;
  for (const auto& [line, mv] : acc) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(line));
    rows.push_back({buf, line, mv});
  }
  std::sort(rows.begin(), rows.end(), [&](const AddrRow& a, const AddrRow& b) {
    return a.mv[sort_metric] > b.mv[sort_metric];
  });
  if (rows.size() > top_n) rows.resize(top_n);
  return cache_lines_cache_.emplace(key, std::move(rows)).first->second;
}

const std::vector<Analysis::InstanceRow>& Analysis::instances(size_t sort_metric,
                                                              size_t top_n) const {
  const auto key = std::make_pair(sort_metric, top_n);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instances_cache_.find(key);
  if (it != instances_cache_.end()) return it->second;
  const ReductionResult& r = reduce_locked();
  std::vector<InstanceRow> rows;
  if (!allocations_.empty()) {
    // Name instances the paper's way — allocating function + per-function
    // ordinal in allocation order ("mcf_arena[0]", "mcf_arena[1]", ...);
    // "alloc[k]" when no site PC was recorded (legacy experiment files).
    struct Named {
      u64 addr, size, orig;
      std::string name;
    };
    std::vector<Named> allocs;
    allocs.reserve(allocations_.size());
    std::map<std::string, u64> ordinal;
    for (size_t i = 0; i < allocations_.size(); ++i) {
      const auto& a = allocations_[i];
      std::string fn = "alloc";
      if (a.site_pc != 0) {
        if (const sym::FuncInfo* f = symtab().find_function(a.site_pc)) fn = f->name;
      }
      const u64 k = ordinal[fn]++;
      allocs.push_back({a.addr, a.size, i, fn + "[" + std::to_string(k) + "]"});
    }
    // Allocations from a bump allocator are address-sorted; be safe anyway.
    std::sort(allocs.begin(), allocs.end(),
              [](const Named& a, const Named& b) { return a.addr < b.addr; });
    std::map<size_t, MetricVector> acc;
    for (const auto& s : r.ea_samples) {
      auto ub = std::upper_bound(allocs.begin(), allocs.end(), s.ea,
                                 [](u64 ea, const Named& a) { return ea < a.addr; });
      if (ub == allocs.begin()) continue;
      --ub;
      if (s.ea >= ub->addr && s.ea < ub->addr + ub->size) {
        add_to(acc[static_cast<size_t>(ub - allocs.begin())], s.metric,
               s.w * scale_[s.metric]);
      }
    }
    for (const auto& [idx, mv] : acc) {
      rows.push_back({allocs[idx].addr, allocs[idx].size, allocs[idx].orig,
                      allocs[idx].name, mv});
    }
    std::sort(rows.begin(), rows.end(), [&](const InstanceRow& a, const InstanceRow& b) {
      return a.mv[sort_metric] > b.mv[sort_metric];
    });
    if (rows.size() > top_n) rows.resize(top_n);
  }
  return instances_cache_.emplace(key, std::move(rows)).first->second;
}

// ---------------------------------------------------------------------------
// Per-access samples (the src/opt/ feedback loop)

const std::vector<Analysis::AccessSample>& Analysis::member_accesses() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (accesses_cache_) return *accesses_cache_;
  std::vector<AccessSample> out;
  // Window interning: (experiment, interned-callstack handle, leaf function
  // entry). Dense ids are assigned in event order — a serial pass over the
  // raw columns, so the result (and every plan derived from it) is
  // independent of the reduction's shard count.
  std::map<std::tuple<size_t, u64, u32, u64>, u32> windows;
  for (size_t x = 0; x < exps_.size(); ++x) {
    const experiment::Experiment& ex = *exps_[x];
    const sym::SymbolTable& st = ex.image.symtab;
    if (!st.hwcprof() || !st.has_branch_targets()) continue;
    // Backtracking keyed by event, not register: multiplexed sets share
    // registers across time slices (reduction.cpp documents the keying).
    std::array<bool, machine::kNumHwEvents> bt{};
    for (const auto& spec : ex.counters) {
      bt[static_cast<size_t>(spec.event)] = spec.backtrack;
    }
    const experiment::EventStore& ev = ex.events;
    const auto pic = ev.pic_col();
    const auto event = ev.event_col();
    const auto weight = ev.weight_col();
    const auto delivered = ev.delivered_pc_col();
    const auto flags = ev.flags_col();
    const auto candidate = ev.candidate_pc_col();
    const auto ea = ev.ea_col();
    const auto cs_off = ev.cs_offset_col();
    const auto cs_len = ev.cs_len_col();
    for (size_t i = 0, n = ev.size(); i < n; ++i) {
      const u8 p = pic[i];
      if (p >= machine::kNumPics || !bt[static_cast<size_t>(event[i])]) continue;
      const u8 f = flags[i];
      if ((f & experiment::EventStore::kHasCandidate) == 0) continue;
      // The reduction's validation rule verbatim: a branch target between
      // the candidate and the delivered PC invalidates the candidate.
      if (st.branch_target_in(candidate[i], delivered[i])) continue;
      const sym::MemRef* ref = st.memref_for(candidate[i]);
      if (!ref || ref->kind != sym::MemRef::Kind::StructMember) continue;
      const sym::FuncInfo* fn = st.find_function(candidate[i]);
      const auto key = std::make_tuple(x, cs_off[i], cs_len[i], fn ? fn->lo : u64{0});
      const auto ins = windows.emplace(key, static_cast<u32>(windows.size()));
      AccessSample s;
      s.trigger_pc = candidate[i];
      s.has_ea = (f & experiment::EventStore::kHasEa) != 0;
      s.ea = s.has_ea ? ea[i] : 0;
      s.window = ins.first->second;
      s.sid = ref->aggregate;
      s.member = ref->member;
      s.metric = static_cast<size_t>(event[i]);
      s.weight = weight[i];
      out.push_back(s);
    }
  }
  access_windows_ = static_cast<u32>(windows.size());
  accesses_cache_ = std::move(out);
  return *accesses_cache_;
}

u32 Analysis::access_windows() const {
  member_accesses();  // fills access_windows_
  std::lock_guard<std::mutex> lock(mu_);
  return access_windows_;
}

const std::array<u64, kNumMetrics>& Analysis::sample_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sample_counts_cache_) return *sample_counts_cache_;
  std::array<u64, kNumMetrics> counts{};
  for (const auto* ex : exps_) {
    const auto pic = ex->events.pic_col();
    const auto event = ex->events.event_col();
    for (size_t i = 0, n = ex->events.size(); i < n; ++i) {
      counts[pic[i] == machine::kClockPic ? kUserCpuMetric
                                          : static_cast<size_t>(event[i])] += 1;
    }
  }
  sample_counts_cache_ = counts;
  return *sample_counts_cache_;
}

double Analysis::split_fraction(u64 base, u64 obj_size, u64 count, u64 line_size) {
  DSP_CHECK(obj_size > 0 && count > 0 && is_pow2(line_size), "bad split_fraction args");
  u64 split = 0;
  for (u64 i = 0; i < count; ++i) {
    const u64 start = base + i * obj_size;
    const u64 end = start + obj_size - 1;
    if ((start / line_size) != (end / line_size)) ++split;
  }
  return static_cast<double>(split) / static_cast<double>(count);
}

}  // namespace dsprof::analyze

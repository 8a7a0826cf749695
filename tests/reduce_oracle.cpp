#include "reduce_oracle.hpp"

#include <map>
#include <string>

#include "analyze/analysis.hpp"

namespace dsprof::oracle {

namespace {

using analyze::DataCat;
using analyze::EaSample;
using analyze::kNumMetrics;
using analyze::kUserCpuMetric;
using analyze::MetricCounts;
using analyze::MetricVector;
using experiment::Experiment;

// Packed composite keys (documented in analyze/reduction.hpp).
constexpr u64 pc_key(u64 pc, bool artificial) { return (pc << 1) | (artificial ? 1 : 0); }
constexpr u64 edge_key(u32 caller, u32 callee) { return (u64{caller} << 32) | callee; }
constexpr u64 data_key(u8 cat, u32 sid) { return (u64{cat} << 32) | sid; }
constexpr u64 member_key(u32 sid, u32 member) { return (u64{sid} << 32) | member; }
constexpr u8 cat(DataCat c) { return static_cast<u8>(c); }

struct BaselineState {
  std::array<bool, kNumMetrics> present{};
  MetricVector total{};
  MetricVector data_total{};
  MetricCounts sample_counts{};
  std::map<std::pair<u64, bool>, MetricVector> pc_map;
  std::map<std::string, MetricVector> func_map;
  std::map<std::string, MetricVector> incl_map;
  std::map<std::pair<std::string, std::string>, MetricVector> edge_map;
  std::map<u32, MetricVector> line_map;
  std::map<std::pair<u8, u32>, MetricVector> data_map;
  std::map<std::pair<u32, u32>, MetricVector> member_map;
  std::vector<EaSample> ea_samples;
};

void baseline_attribute_code(BaselineState& st, const sym::SymbolTable& symtab, u64 pc,
                             bool artificial, size_t metric, double w,
                             const experiment::CallstackRef& callstack) {
  analyze::add_to(st.pc_map[{pc, artificial}], metric, w);
  const sym::FuncInfo* f = symtab.find_function(pc);
  const std::string leaf = f ? f->name : "<unknown code>";
  analyze::add_to(st.func_map[leaf], metric, w);
  if (auto line = symtab.line_for(pc)) analyze::add_to(st.line_map[*line], metric, w);

  std::vector<std::string> frames;
  frames.reserve(callstack.size() + 1);
  for (u64 site : callstack) {
    const sym::FuncInfo* cf = symtab.find_function(site);
    frames.push_back(cf ? cf->name : "<unknown code>");
  }
  frames.push_back(leaf);
  std::vector<const std::string*> seen;
  for (const auto& name : frames) {
    bool dup = false;
    for (const auto* s : seen) dup |= *s == name;
    if (!dup) {
      analyze::add_to(st.incl_map[name], metric, w);
      seen.push_back(&name);
    }
  }
  for (size_t i = 0; i + 1 < frames.size(); ++i) {
    analyze::add_to(st.edge_map[{frames[i], frames[i + 1]}], metric, w);
  }
}

void baseline_fold_event(BaselineState& bs, const Experiment& ex,
                         const std::array<bool, machine::kNumHwEvents>& backtrack_by_event,
                         size_t i) {
  const sym::SymbolTable& st = ex.image.symtab;
  const experiment::EventView e = ex.events[i];
  const double w = static_cast<double>(e.weight);

  if (e.pic == machine::kClockPic) {
    bs.present[kUserCpuMetric] = true;
    bs.sample_counts[kUserCpuMetric] += 1;
    analyze::add_to(bs.total, kUserCpuMetric, w);
    baseline_attribute_code(bs, st, e.delivered_pc, false, kUserCpuMetric, w, e.callstack);
    return;
  }

  const auto metric = static_cast<size_t>(e.event);
  bs.present[metric] = true;
  bs.sample_counts[metric] += 1;
  analyze::add_to(bs.total, metric, w);

  const bool backtracked = e.pic < machine::kNumPics && backtrack_by_event[metric];
  auto data_bucket = [&](u8 c, u32 sid) {
    analyze::add_to(bs.data_map[{c, sid}], metric, w);
    analyze::add_to(bs.data_total, metric, w);
  };

  if (!backtracked || !e.has_candidate) {
    baseline_attribute_code(bs, st, e.delivered_pc, false, metric, w, e.callstack);
    data_bucket(cat(DataCat::Unresolvable), sym::kInvalidType);
    return;
  }
  if (!st.has_branch_targets()) {
    baseline_attribute_code(bs, st, e.candidate_pc, false, metric, w, e.callstack);
    data_bucket(cat(DataCat::Unverifiable), sym::kInvalidType);
    return;
  }
  if (auto target = st.branch_target_in(e.candidate_pc, e.delivered_pc)) {
    baseline_attribute_code(bs, st, *target, true, metric, w, e.callstack);
    data_bucket(cat(DataCat::Unresolvable), sym::kInvalidType);
    return;
  }
  baseline_attribute_code(bs, st, e.candidate_pc, false, metric, w, e.callstack);
  if (!st.hwcprof()) {
    data_bucket(cat(DataCat::Unascertainable), sym::kInvalidType);
    return;
  }
  const sym::MemRef* ref = st.memref_for(e.candidate_pc);
  if (!ref) {
    data_bucket(cat(DataCat::Unspecified), sym::kInvalidType);
    return;
  }
  switch (ref->kind) {
    case sym::MemRef::Kind::Unidentified:
      data_bucket(cat(DataCat::Unidentified), sym::kInvalidType);
      break;
    case sym::MemRef::Kind::Scalar:
      data_bucket(cat(DataCat::Scalars), sym::kInvalidType);
      break;
    case sym::MemRef::Kind::StructMember:
      data_bucket(cat(DataCat::Struct), ref->aggregate);
      analyze::add_to(bs.member_map[{ref->aggregate, ref->member}], metric, w);
      break;
  }
  if (e.has_ea) bs.ea_samples.push_back({e.ea, metric, w});
}

MetricCounts counts_of(const MetricVector& v) {
  MetricCounts c{};
  for (size_t m = 0; m < kNumMetrics; ++m) c[m] = static_cast<u64>(v[m]);
  return c;
}

}  // namespace

analyze::ReductionResult reduce(const std::vector<const Experiment*>& exps) {
  DSP_CHECK(!exps.empty(), "no experiments to analyze");
  BaselineState bs;
  size_t n = 0;
  for (const auto* ex : exps) {
    std::array<bool, machine::kNumHwEvents> backtrack_by_event{};
    for (const auto& spec : ex->counters) {
      backtrack_by_event[static_cast<size_t>(spec.event)] = spec.backtrack;
    }
    n += ex->events.size();
    for (size_t i = 0; i < ex->events.size(); ++i) {
      baseline_fold_event(bs, *ex, backtrack_by_event, i);
    }
  }

  // Convert the string-keyed maps into the packed-key result form.
  const sym::SymbolTable& st = exps[0]->image.symtab;
  const u32 unknown_id = static_cast<u32>(st.functions().size());
  auto id_of = [&](const std::string& name) -> u32 {
    for (size_t f = 0; f < st.functions().size(); ++f) {
      if (st.functions()[f].name == name) return static_cast<u32>(f);
    }
    return unknown_id;
  };

  analyze::ReductionResult r;
  r.events_reduced = n;
  r.present = bs.present;
  r.total = counts_of(bs.total);
  r.data_total = counts_of(bs.data_total);
  r.sample_counts = bs.sample_counts;
  for (const auto& [k, v] : bs.pc_map) r.pc[pc_key(k.first, k.second)] = counts_of(v);
  for (const auto& [k, v] : bs.func_map) r.func[id_of(k)] = counts_of(v);
  for (const auto& [k, v] : bs.incl_map) r.incl[id_of(k)] = counts_of(v);
  for (const auto& [k, v] : bs.edge_map) {
    r.edge[edge_key(id_of(k.first), id_of(k.second))] = counts_of(v);
  }
  for (const auto& [k, v] : bs.line_map) r.line[k] = counts_of(v);
  for (const auto& [k, v] : bs.data_map) r.data[data_key(k.first, k.second)] = counts_of(v);
  for (const auto& [k, v] : bs.member_map) {
    r.member[member_key(k.first, k.second)] = counts_of(v);
  }
  r.ea_samples = std::move(bs.ea_samples);
  for (const auto& f : st.functions()) r.func_names.push_back(f.name);
  r.func_names.push_back("<unknown code>");
  return r;
}

}  // namespace dsprof::oracle

#include "sym/symtab.hpp"

#include <algorithm>

namespace dsprof::sym {

void SymbolTable::add_function(FuncInfo f) {
  DSP_CHECK(f.lo < f.hi, "empty function " + f.name);
  funcs_.push_back(std::move(f));
  std::sort(funcs_.begin(), funcs_.end(),
            [](const FuncInfo& a, const FuncInfo& b) { return a.lo < b.lo; });
}

void SymbolTable::add_line(u64 pc, u32 line) {
  DSP_CHECK(lines_.empty() || lines_.back().pc <= pc, "line entries must be pc-sorted");
  lines_.push_back({pc, line});
}

void SymbolTable::add_memref(u64 pc, MemRef ref) { memrefs_[pc] = ref; }

void SymbolTable::set_branch_targets(std::vector<u64> sorted_targets) {
  DSP_CHECK(std::is_sorted(sorted_targets.begin(), sorted_targets.end()),
            "branch targets must be sorted");
  branch_targets_ = std::move(sorted_targets);
}

void SymbolTable::add_source_line(u32 line, std::string text) {
  source_[line] = std::move(text);
}

const FuncInfo* SymbolTable::find_function(u64 pc) const {
  auto it = std::upper_bound(funcs_.begin(), funcs_.end(), pc,
                             [](u64 v, const FuncInfo& f) { return v < f.lo; });
  if (it == funcs_.begin()) return nullptr;
  --it;
  return pc < it->hi ? &*it : nullptr;
}

std::optional<u32> SymbolTable::line_for(u64 pc) const {
  auto it = std::upper_bound(lines_.begin(), lines_.end(), pc,
                             [](u64 v, const LineEntry& e) { return v < e.pc; });
  if (it == lines_.begin()) return std::nullopt;
  --it;
  // A line entry covers PCs until the next entry, but only within a function.
  const FuncInfo* f = find_function(pc);
  const FuncInfo* fe = find_function(it->pc);
  if (f == nullptr || f != fe) return std::nullopt;
  return it->line;
}

const MemRef* SymbolTable::memref_for(u64 pc) const {
  auto it = memrefs_.find(pc);
  return it == memrefs_.end() ? nullptr : &it->second;
}

std::optional<u64> SymbolTable::branch_target_in(u64 lo, u64 hi) const {
  auto it = std::upper_bound(branch_targets_.begin(), branch_targets_.end(), lo);
  if (it != branch_targets_.end() && *it <= hi) return *it;
  return std::nullopt;
}

const std::string* SymbolTable::source_text(u32 line) const {
  auto it = source_.find(line);
  return it == source_.end() ? nullptr : &it->second;
}

std::string SymbolTable::memref_string(u64 pc) const {
  const MemRef* r = memref_for(pc);
  if (!r) return "";
  switch (r->kind) {
    case MemRef::Kind::StructMember: {
      const Type& agg = types_.get(r->aggregate);
      DSP_CHECK(r->member < agg.members.size(), "bad member index");
      const Member& m = agg.members[r->member];
      return types_.aggregate_string(r->aggregate) + ".{" + types_.type_string(m.type) +
             " " + m.name + "}";
    }
    case MemRef::Kind::Scalar:
      return "{" + types_.type_string(r->aggregate) + " <scalar>}";
    case MemRef::Kind::Unidentified:
      return "{(Unidentified)}";
  }
  return "";
}

void SymbolTable::serialize(ByteWriter& w) const {
  types_.serialize(w);
  w.put_u32(static_cast<u32>(funcs_.size()));
  for (const auto& f : funcs_) {
    w.put_string(f.name);
    w.put_u64(f.lo);
    w.put_u64(f.hi);
  }
  w.put_u32(static_cast<u32>(lines_.size()));
  for (const auto& e : lines_) {
    w.put_u64(e.pc);
    w.put_u32(e.line);
  }
  w.put_u32(static_cast<u32>(memrefs_.size()));
  // Deterministic order for byte-identical round trips.
  std::vector<u64> pcs;
  pcs.reserve(memrefs_.size());
  for (const auto& [pc, ref] : memrefs_) pcs.push_back(pc);
  std::sort(pcs.begin(), pcs.end());
  for (u64 pc : pcs) {
    const MemRef& m = memrefs_.at(pc);
    w.put_u64(pc);
    w.put_u8(static_cast<u8>(m.kind));
    w.put_u32(m.aggregate);
    w.put_u32(m.member);
  }
  w.put_u32(static_cast<u32>(branch_targets_.size()));
  for (u64 t : branch_targets_) w.put_u64(t);
  w.put_u32(static_cast<u32>(source_.size()));
  std::vector<u32> linenos;
  for (const auto& [line, text] : source_) linenos.push_back(line);
  std::sort(linenos.begin(), linenos.end());
  for (u32 line : linenos) {
    w.put_u32(line);
    w.put_string(source_.at(line));
  }
  w.put_u8(hwcprof_ ? 1 : 0);
  w.put_u8(has_branch_targets_ ? 1 : 0);
}

SymbolTable SymbolTable::deserialize(ByteReader& r) {
  SymbolTable st;
  st.types_ = TypeTable::deserialize(r);
  const u32 nf = r.get_u32();
  for (u32 i = 0; i < nf; ++i) {
    FuncInfo f;
    f.name = r.get_string();
    f.lo = r.get_u64();
    f.hi = r.get_u64();
    st.funcs_.push_back(std::move(f));
  }
  const u32 nl = r.get_u32();
  for (u32 i = 0; i < nl; ++i) {
    LineEntry e;
    e.pc = r.get_u64();
    e.line = r.get_u32();
    st.lines_.push_back(e);
  }
  const u32 nm = r.get_u32();
  for (u32 i = 0; i < nm; ++i) {
    const u64 pc = r.get_u64();
    MemRef m;
    m.kind = static_cast<MemRef::Kind>(r.get_u8());
    m.aggregate = r.get_u32();
    m.member = r.get_u32();
    st.memrefs_[pc] = m;
  }
  const u32 nt = r.get_u32();
  for (u32 i = 0; i < nt; ++i) st.branch_targets_.push_back(r.get_u64());
  const u32 ns = r.get_u32();
  for (u32 i = 0; i < ns; ++i) {
    const u32 line = r.get_u32();
    st.source_[line] = r.get_string();
  }
  st.hwcprof_ = r.get_u8() != 0;
  st.has_branch_targets_ = r.get_u8() != 0;
  return st;
}

}  // namespace dsprof::sym

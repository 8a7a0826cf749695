#include "sa/backtrack_table.hpp"

#include "isa/isa.hpp"

namespace dsprof::sa {

using machine::TriggerKind;

/// Precompute the answer for one (delivered word, trigger kind) pair by
/// replaying the dynamic reference search (oracle::backtrack_dynamic) over
/// the decoded text. Word index `dw` corresponds to delivered PC
/// text_base + 4*dw; `dw == code.size()` is the one-past-the-end PC.
///
/// Every branch of the reference is mirrored here, including its deliberate
/// conservatisms:
///   - the between-scan treats annulled delay-slot instructions as executed
///     writers (see the header comment);
///   - HCALL is treated as writing no register, matching the reference scan
///     (its %o0 result is invisible to the clobber logic there too).
/// Changing either here without changing the reference would break the
/// bit-identity contract enforced by the tests.
BacktrackTable::Entry BacktrackTable::precompute(const std::vector<isa::Instr>& code,
                                                 size_t dw, TriggerKind kind, u32 window) {
  BacktrackTable::Entry e;
  const size_t n = code.size();
  // Reference loop: pc starts at the delivered PC; each step requires
  // pc >= text_lo + 4 && pc <= text_hi before decrementing. In word terms:
  // the current position `cur` must satisfy 1 <= cur <= n.
  size_t cur = dw;
  for (u32 step = 0; step < window; ++step) {
    if (cur < 1 || cur > n) break;
    --cur;  // pc -= 4
    const isa::Instr& ins = code[cur];
    const isa::OpInfo& info = isa::op_info(ins.op);
    const bool matches = kind == TriggerKind::Load
                             ? info.is_load
                             : (info.is_load || info.is_store || info.is_prefetch);
    if (!matches) continue;

    e.flags |= BacktrackTable::kFound;
    e.candidate_word = static_cast<u32>(cur);

    const auto ea = isa::ea_expr(ins);
    DSP_CHECK(ea.has_value(), "memory op without EA expression");
    bool clobbered = false;
    // Self-clobber: a load that overwrites its own base/index register.
    if (info.is_load && ins.rd != 0 &&
        (ins.rd == ea->rs1 || (!ea->has_imm && ins.rd == ea->rs2))) {
      clobbered = true;
    }
    // Skid-gap clobber scan: instructions strictly between the candidate and
    // the delivered PC. Conservative: includes possibly-annulled delay slots.
    for (size_t q = cur + 1; q < dw && !clobbered; ++q) {
      const isa::Instr& between = code[q];
      const isa::OpInfo& binfo = isa::op_info(between.op);
      u8 written = 32;  // none
      if (binfo.is_load || (!binfo.is_store && !binfo.is_branch && !binfo.is_call &&
                            !binfo.is_prefetch && between.op != isa::Op::ILLEGAL &&
                            between.op != isa::Op::HCALL)) {
        written = between.rd;
      }
      if (binfo.is_call) written = isa::kLink;
      if (written != 32 && written != 0) {
        if (written == ea->rs1 || (!ea->has_imm && written == ea->rs2)) clobbered = true;
      }
    }
    if (!clobbered) {
      e.flags |= BacktrackTable::kEaStatic;
      e.rs1 = ea->rs1;
      if (ea->has_imm) {
        e.flags |= BacktrackTable::kHasImm;
        e.imm = ea->imm;
      } else {
        e.rs2 = ea->rs2;
      }
    }
    return e;
  }
  return e;  // nothing found within the window: (Unresolvable)
}

BacktrackTable BacktrackTable::build(const sym::Image& img, u32 window) {
  BacktrackTable t;
  t.text_base_ = img.text_base;
  t.window_ = window;
  const size_t n = img.text_words.size();
  std::vector<isa::Instr> code(n);
  for (size_t i = 0; i < n; ++i) code[i] = isa::decode(img.text_words[i]);
  t.load_.resize(n + 1);
  t.loadstore_.resize(n + 1);
  for (size_t dw = 0; dw <= n; ++dw) {
    t.load_[dw] = precompute(code, dw, TriggerKind::Load, window);
    t.loadstore_[dw] = precompute(code, dw, TriggerKind::LoadStore, window);
  }
  return t;
}

BacktrackAnswer BacktrackTable::query(u64 delivered_pc, TriggerKind kind,
                                      const std::array<u64, 32>& regs) const {
  BacktrackAnswer r;
  if (kind == TriggerKind::Any) return r;  // nothing to search for
  if (delivered_pc < text_base_ || (delivered_pc & 3) != 0) return r;
  const u64 dw = (delivered_pc - text_base_) >> 2;
  const std::vector<Entry>& tab = table_for(kind);
  if (dw >= tab.size()) return r;
  const Entry& e = tab[static_cast<size_t>(dw)];
  if (!(e.flags & kFound)) return r;
  r.found = true;
  r.candidate_pc = text_base_ + 4 * static_cast<u64>(e.candidate_word);
  if (e.flags & kEaStatic) {
    r.ea_known = true;
    const u64 off = (e.flags & kHasImm) ? static_cast<u64>(e.imm) : regs[e.rs2];
    r.ea = regs[e.rs1] + off;
  }
  return r;
}

BacktrackTable::StaticEntry BacktrackTable::static_entry(u64 delivered_pc,
                                                         TriggerKind kind) const {
  StaticEntry s;
  if (kind == TriggerKind::Any) return s;
  if (delivered_pc < text_base_ || (delivered_pc & 3) != 0) return s;
  const u64 dw = (delivered_pc - text_base_) >> 2;
  const std::vector<Entry>& tab = table_for(kind);
  if (dw >= tab.size()) return s;
  const Entry& e = tab[static_cast<size_t>(dw)];
  s.found = (e.flags & kFound) != 0;
  s.ea_static = (e.flags & kEaStatic) != 0;
  if (s.found) s.candidate_pc = text_base_ + 4 * static_cast<u64>(e.candidate_word);
  return s;
}

size_t BacktrackTable::size_bytes() const {
  return (load_.size() + loadstore_.size()) * sizeof(Entry);
}

size_t BacktrackTable::count_found(TriggerKind kind) const {
  if (kind == TriggerKind::Any) return 0;  // matches query(): nothing to search
  size_t c = 0;
  for (const Entry& e : table_for(kind)) c += (e.flags & kFound) ? 1 : 0;
  return c;
}

size_t BacktrackTable::count_ea_static(TriggerKind kind) const {
  if (kind == TriggerKind::Any) return 0;
  size_t c = 0;
  for (const Entry& e : table_for(kind)) c += (e.flags & kEaStatic) ? 1 : 0;
  return c;
}

}  // namespace dsprof::sa

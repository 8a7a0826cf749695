#include "backtrack_oracle.hpp"

#include "isa/isa.hpp"

namespace dsprof::oracle {

using machine::TriggerKind;

sa::BacktrackAnswer backtrack_dynamic(const sym::Image& image, u64 delivered_pc,
                                      TriggerKind kind, const std::array<u64, 32>& regs,
                                      u32 window) {
  sa::BacktrackAnswer r;
  if (kind == TriggerKind::Any) return r;  // nothing to search for

  const u64 text_lo = image.text_base;
  const u64 text_hi = image.text_base + image.text_size();
  auto fetch = [&](u64 pc) {
    return image.text_words[static_cast<size_t>((pc - text_lo) >> 2)];
  };

  // Walk back in address order from the instruction before the delivered PC
  // (the delivered PC is the *next* instruction to issue, §2.2.2).
  u64 pc = delivered_pc;
  for (u32 step = 0; step < window; ++step) {
    if (pc < text_lo + 4 || pc > text_hi) break;
    pc -= 4;
    const isa::Instr ins = isa::decode(fetch(pc));
    const isa::OpInfo& info = isa::op_info(ins.op);
    const bool matches = kind == TriggerKind::Load
                             ? info.is_load
                             : (info.is_load || info.is_store || info.is_prefetch);
    if (!matches) continue;

    r.found = true;
    r.candidate_pc = pc;

    // Effective-address recomputation: usable only if neither the candidate
    // itself (a load overwriting its own base register) nor any instruction
    // between it and the delivered PC wrote the address registers
    // (registers may have been changed while the counter was skidding).
    //
    // Conservative annulled-delay-slot rule: instructions in the skid gap
    // are treated as executed writers even when they sit in the delay slot
    // of an annulling branch — the snapshot cannot prove the slot ran, so
    // we may drop a recoverable EA but never report a wrong one. The
    // sa::BacktrackTable applies the identical rule (see its header).
    const auto ea = isa::ea_expr(ins);
    DSP_CHECK(ea.has_value(), "memory op without EA expression");
    bool clobbered = false;
    if (info.is_load && ins.rd != 0 &&
        (ins.rd == ea->rs1 || (!ea->has_imm && ins.rd == ea->rs2))) {
      clobbered = true;
    }
    for (u64 q = pc + 4; q < delivered_pc; q += 4) {
      const isa::Instr between = isa::decode(fetch(q));
      const isa::OpInfo& binfo = isa::op_info(between.op);
      u8 written = 32;  // none
      if (binfo.is_load || (!binfo.is_store && !binfo.is_branch && !binfo.is_call &&
                            !binfo.is_prefetch && between.op != isa::Op::ILLEGAL &&
                            between.op != isa::Op::HCALL)) {
        written = between.rd;
      }
      if (binfo.is_call) written = isa::kLink;
      if (written != 32 && written != 0) {
        if (written == ea->rs1 || (!ea->has_imm && written == ea->rs2)) {
          clobbered = true;
          break;
        }
      }
    }
    if (!clobbered) {
      const u64 base = regs[ea->rs1];
      const u64 off = ea->has_imm ? static_cast<u64>(ea->imm) : regs[ea->rs2];
      r.ea_known = true;
      r.ea = base + off;
    }
    return r;
  }
  return r;  // nothing found within the window: (Unresolvable)
}

}  // namespace dsprof::oracle

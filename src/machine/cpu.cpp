#include "machine/cpu.hpp"

#include <algorithm>

#include "machine/hostcall.hpp"
#include "obs/obs.hpp"

namespace dsprof::machine {

using isa::Instr;
using isa::Op;

namespace {
// The events whose PIC counts are derived from cycles_ / instructions_.
constexpr HwEvent kTimeEvents[] = {HwEvent::Cycle_cnt, HwEvent::Instr_cnt};
// Extra base cycles for expensive ops (beyond the 1-cycle issue cost).
constexpr u32 kMulExtraCycles = 4;
constexpr u32 kDivExtraCycles = 40;
}  // namespace

Cpu::Cpu(mem::Memory& memory, const CpuConfig& cfg)
    : mem_(memory), cfg_(cfg), hier_(cfg.hierarchy), rng_(cfg.seed) {
  regs_[isa::kSp] = mem::kStackTop;
}

void Cpu::set_pc(u64 pc) {
  pc_ = pc;
  npc_ = pc + 4;
}

void Cpu::set_reg(unsigned r, u64 v) {
  DSP_CHECK(r < 32, "bad register");
  if (r != 0) regs_[r] = v;
}

void Cpu::configure_pic(unsigned pic, HwEvent ev, u64 interval, u64 start_value) {
  DSP_CHECK(pic < kNumPics, "bad PIC index");
  DSP_CHECK(interval > 0, "overflow interval must be positive");
  DSP_CHECK(start_value < interval, "PIC start value must be below the interval");
  const HwEventInfo& info = hw_event_info(ev);
  DSP_CHECK(info.pic_mask & (1u << pic),
            std::string("event ") + info.name + " cannot be counted on PIC" +
                std::to_string(pic));
  fold_time_pics();
  pics_[pic] = Pic{true, ev, interval, start_value, 0};
  rebuild_event_routing();
}

void Cpu::disable_pic(unsigned pic) {
  DSP_CHECK(pic < kNumPics, "bad PIC index");
  // Fold a live time-driven count back into the register first, so the
  // residual a counter-multiplexing collector reads later is the one it
  // stopped at.
  fold_time_pics();
  pics_[pic].enabled = false;
  rebuild_event_routing();
}

u64 Cpu::pic_value(unsigned pic) const {
  DSP_CHECK(pic < kNumPics, "bad PIC index");
  const Pic& p = pics_[pic];
  const bool time_driven = p.event == HwEvent::Cycle_cnt || p.event == HwEvent::Instr_cnt;
  if (time_driven && pic_for_event_[static_cast<size_t>(p.event)] == pic + 1) {
    return event_total(p.event) - p.origin;
  }
  return p.value;
}

void Cpu::fold_time_pics() {
  for (const HwEvent ev : kTimeEvents) {
    if (Pic* p = live_pic(ev)) p->value = event_total(ev) - p->origin;
  }
}

void Cpu::rebuild_event_routing() {
  for (auto& v : pic_for_event_) v = 0;
  // Each event can be live on at most one PIC at a time (the two registers
  // count different events).
  for (unsigned pic = 0; pic < kNumPics; ++pic) {
    if (pics_[pic].enabled) {
      pic_for_event_[static_cast<size_t>(pics_[pic].event)] = static_cast<u8>(pic + 1);
    }
  }
  // Live time-driven PICs resume from their folded register values.
  for (const HwEvent ev : kTimeEvents) {
    if (Pic* p = live_pic(ev)) p->origin = event_total(ev) - p->value;
  }
  recompute_thresholds();
}

void Cpu::configure_clock_profiling(u64 interval_cycles) {
  DSP_CHECK(interval_cycles > 0, "clock interval must be positive");
  clock_interval_ = interval_cycles;
  clock_origin_ = cycles_;
  recompute_thresholds();
}

void Cpu::configure_slice_timer(u64 interval_cycles) {
  slice_interval_ = interval_cycles;
  slice_origin_ = cycles_;
  recompute_thresholds();
}

void Cpu::recompute_thresholds() {
  // The total at which a count that began at `origin` reaches `interval`
  // (saturating: an interval beyond the u64 range never falls due).
  auto due = [](u64 total, u64 origin, u64 interval) {
    const u64 left = interval - (total - origin);
    return left > kNever - total ? kNever : total + left;
  };
  next_cycle_check_ = kNever;
  next_instr_check_ = kNever;
  if (const Pic* p = live_pic(HwEvent::Cycle_cnt)) {
    next_cycle_check_ = due(cycles_, p->origin, p->interval);
  }
  if (clock_interval_ != 0) {
    next_cycle_check_ = std::min(next_cycle_check_, due(cycles_, clock_origin_, clock_interval_));
  }
  if (slice_interval_ != 0) {
    next_cycle_check_ = std::min(next_cycle_check_, due(cycles_, slice_origin_, slice_interval_));
  }
  if (const Pic* p = live_pic(HwEvent::Instr_cnt)) {
    next_instr_check_ = due(instructions_, p->origin, p->interval);
  }
}

void Cpu::check_time_pic(HwEvent ev, u64 pc) {
  Pic* p = live_pic(ev);
  if (p == nullptr) return;
  const u64 total = event_total(ev);
  const u64 value = total - p->origin;
  if (value >= p->interval) {
    p->origin = total - value % p->interval;  // fold multiple overflows into one delivery
    trigger_overflow(static_cast<unsigned>(p - pics_.data()), pc, false, 0);
  }
}

void Cpu::fire_time_events(u64 pc) {
  // The order per-instruction counting used: the Cycle_cnt PIC, the
  // Instr_cnt PIC, the clock sample, then the slice timer. The slice timer
  // fires between instructions (this one has fully counted, the next has
  // not started), so a rotation callback sees consistent registers.
  check_time_pic(HwEvent::Cycle_cnt, pc);
  check_time_pic(HwEvent::Instr_cnt, pc);
  if (clock_interval_ != 0 && cycles_ - clock_origin_ >= clock_interval_) {
    clock_origin_ = cycles_ - (cycles_ - clock_origin_) % clock_interval_;
    trigger_overflow(kClockPic, pc, false, 0);
  }
  if (slice_interval_ != 0 && cycles_ - slice_origin_ >= slice_interval_) {
    slice_origin_ = cycles_ - (cycles_ - slice_origin_) % slice_interval_;
    if (on_slice) on_slice();
  }
  recompute_thresholds();
}

u32 Cpu::draw_skid(HwEvent ev) {
  const HwEventInfo& info = hw_event_info(ev);
  const u32 lo = static_cast<u32>(info.skid_min * cfg_.skid_scale);
  const u32 hi = static_cast<u32>(info.skid_max * cfg_.skid_scale);
  if (hi <= lo) return lo;
  return lo + static_cast<u32>(rng_.below(hi - lo + 1));
}

void Cpu::trigger_overflow(unsigned pic, u64 trigger_pc, bool ea_valid, u64 ea) {
  Pending p;
  p.active = true;
  const HwEvent ev = pic == kClockPic ? HwEvent::Cycle_cnt : pics_[pic].event;
  const u64 interval = pic == kClockPic ? clock_interval_ : pics_[pic].interval;
  const u32 skid = draw_skid(ev);
  // +1 because the trigger instruction's own retirement decrements once.
  p.skid_remaining = skid + 1;
  p.partial.pic = pic;
  p.partial.event = ev;
  p.partial.interval = interval;
  p.partial.seq = next_seq_++;
  // Clock samples have no trigger concept; ground truth covers HW counters.
  if (truth_enabled_ && pic != kClockPic) {
    truth_.push_back({p.partial.seq, pic, ev, trigger_pc, ea_valid, ea, skid});
  }
  pending_.push_back(p);
}

void Cpu::count_event(HwEvent ev, u64 amount, u64 trigger_pc, bool ea_valid, u64 ea) {
  event_totals_[static_cast<size_t>(ev)] += amount;
  const u8 pic_plus1 = pic_for_event_[static_cast<size_t>(ev)];
  if (pic_plus1 == 0) return;
  const unsigned pic = pic_plus1 - 1;
  Pic& p = pics_[pic];
  p.value += amount;
  if (p.value >= p.interval) {
    p.value %= p.interval;  // fold multiple overflows into one delivery
    trigger_overflow(pic, trigger_pc, ea_valid, ea);
  }
}

inline void Cpu::count_outcome(const cache::AccessOutcome& out, u64 pc, u64 ea) {
  if (out.dc_rd_miss) count_event(HwEvent::DC_rd_miss, 1, pc, true, ea);
  if (out.dc_wr_miss) count_event(HwEvent::DC_wr_miss, 1, pc, true, ea);
  if (out.ec_ref) count_event(HwEvent::EC_ref, 1, pc, true, ea);
  if (out.ec_rd_miss) count_event(HwEvent::EC_rd_miss, 1, pc, true, ea);
  if (out.dtlb_miss) count_event(HwEvent::DTLB_miss, 1, pc, true, ea);
  if (out.ec_stall_cycles) {
    count_event(HwEvent::EC_stall_cycles, out.ec_stall_cycles, pc, true, ea);
  }
}

void Cpu::deliver_due() {
  for (size_t i = 0; i < pending_.size();) {
    Pending& p = pending_[i];
    if (p.skid_remaining == 0) {
      // Fill the reusable scratch delivery: no per-event allocation (the
      // callstack assign reuses capacity after the first few deliveries).
      OverflowDelivery& d = scratch_delivery_;
      d.pic = p.partial.pic;
      d.event = p.partial.event;
      d.interval = p.partial.interval;
      d.seq = p.partial.seq;
      d.delivered_pc = pc_;
      d.regs = regs_;
      d.callstack.assign(call_stack_.begin(), call_stack_.end());
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      if (on_overflow) on_overflow(d);
    } else {
      ++i;
    }
  }
}

const Cpu::DecodedOp& Cpu::decoded_slow(u64 pc) {
  if (text_.empty()) {
    const mem::Segment* text = nullptr;
    for (const auto& s : mem_.segments()) {
      if (s.kind == mem::SegKind::Text) text = &s;
    }
    DSP_CHECK(text != nullptr, "no text segment loaded");
    std::vector<u32> words(text->size / 4);
    mem_.read_bytes(text->base, words.data(), words.size() * 4);
    text_.reserve(words.size());
    for (const u32 w : words) {
      const Instr ins = isa::decode(w);
      DecodedOp d;
      d.op = ins.op;
      d.rd = ins.rd;
      d.rs1 = ins.rs1;
      d.rs2 = ins.rs2;
      d.cond = ins.cond;
      d.annul = ins.annul;
      d.has_imm = ins.has_imm;
      d.mem_size = static_cast<u8>(isa::op_info(ins.op).mem_size);
      d.imm = ins.op == Op::BR || ins.op == Op::CALL ? ins.disp : ins.imm;
      text_.push_back(d);
    }
    text_base_ = text->base;
  }
  DSP_CHECK(pc >= text_base_ && (pc - text_base_) / 4 < text_.size() && pc % 4 == 0,
            "PC outside text segment");
  return text_[(pc - text_base_) / 4];
}

inline bool Cpu::eval_cond(isa::Cond c) const {
  using isa::Cond;
  switch (c) {
    case Cond::N: return false;
    case Cond::E: return cc_z_;
    case Cond::LE: return cc_z_ || (cc_n_ != cc_v_);
    case Cond::L: return cc_n_ != cc_v_;
    case Cond::LEU: return cc_c_ || cc_z_;
    case Cond::LU: return cc_c_;
    case Cond::A: return true;
    case Cond::NE: return !cc_z_;
    case Cond::G: return !(cc_z_ || (cc_n_ != cc_v_));
    case Cond::GE: return cc_n_ == cc_v_;
    case Cond::GU: return !(cc_c_ || cc_z_);
    case Cond::GEU: return !cc_c_;
  }
  fail("bad condition");
}

void Cpu::set_cc_add(u64 a, u64 b, u64 r) {
  cc_n_ = static_cast<i64>(r) < 0;
  cc_z_ = r == 0;
  cc_v_ = (~(a ^ b) & (a ^ r)) >> 63;
  cc_c_ = r < a;
}

void Cpu::set_cc_sub(u64 a, u64 b, u64 r) {
  cc_n_ = static_cast<i64>(r) < 0;
  cc_z_ = r == 0;
  cc_v_ = ((a ^ b) & (a ^ r)) >> 63;
  cc_c_ = a < b;  // borrow
}

void Cpu::exec_hcall(i64 code, u64 pc) {
  switch (static_cast<HostCall>(code)) {
    case HostCall::Exit:
      halted_ = true;
      exit_code_ = static_cast<i64>(regs_[isa::O0]);
      break;
    case HostCall::PutC:
      output_.push_back(static_cast<char>(regs_[isa::O0] & 0xFF));
      break;
    case HostCall::PutI:
      output_ += std::to_string(static_cast<i64>(regs_[isa::O0]));
      break;
    case HostCall::Abort:
      fail("simulated program aborted (hcall abort), %o0=" +
           std::to_string(static_cast<i64>(regs_[isa::O0])));
    case HostCall::Trace:
      trace_.push_back(static_cast<i64>(regs_[isa::O0]));
      break;
    case HostCall::NoteAlloc:
      // Attribute to the allocator's call site, not the allocator itself:
      // every allocation flows through the runtime malloc, so the noting
      // instruction's own PC would name them all "malloc[k]".
      allocs_.push_back(AllocRecord{regs_[isa::O0], regs_[isa::O1],
                                    call_stack_.empty() ? pc : call_stack_.back()});
      break;
    default:
      fail("unknown hcall code " + std::to_string(code));
  }
}

// Inlined into run(): the per-instruction path makes no call it can avoid.
[[gnu::always_inline]] inline void Cpu::step() {
  if (!pending_.empty()) deliver_due();

  if (annul_next_) {
    // The annulled delay-slot instruction is fetched but not executed; it
    // costs a cycle but neither retires nor counts toward pending skid.
    annul_next_ = false;
    cycles_ += 1;
    if (time_events_due()) fire_time_events(pc_);
    pc_ = npc_;
    npc_ += 4;
    return;
  }

  const u64 pc = pc_;
  const cache::AccessOutcome fetch_out = hier_.fetch(pc);
  if (fetch_out.ic_miss) count_event(HwEvent::IC_miss, 1, pc, false, 0);

  const DecodedOp& ins = decoded(pc);

  u64 next_pc = npc_;
  u64 next_npc = npc_ + 4;
  u32 cost = 1 + fetch_out.stall_cycles;

  const u64 a = regs_[ins.rs1];
  const u64 b = ins.has_imm ? static_cast<u64>(ins.imm) : regs_[ins.rs2];
  auto wr = [&](u64 v) {
    if (ins.rd != 0) regs_[ins.rd] = v;
  };

  switch (ins.op) {
    case Op::ILLEGAL:
      fail("illegal instruction at pc " + std::to_string(pc));
    case Op::SETHI:
      wr(static_cast<u64>(ins.imm) << 14);
      break;
    case Op::ADD:
      wr(a + b);
      break;
    case Op::SUB:
      wr(a - b);
      break;
    case Op::ADDCC: {
      const u64 r = a + b;
      set_cc_add(a, b, r);
      wr(r);
      break;
    }
    case Op::SUBCC: {
      const u64 r = a - b;
      set_cc_sub(a, b, r);
      wr(r);
      break;
    }
    case Op::MULX:
      cost += kMulExtraCycles;
      wr(a * b);
      break;
    case Op::SDIVX: {
      cost += kDivExtraCycles;
      if (b == 0) fail("division by zero at pc " + std::to_string(pc));
      wr(static_cast<u64>(static_cast<i64>(a) / static_cast<i64>(b)));
      break;
    }
    case Op::UDIVX:
      cost += kDivExtraCycles;
      if (b == 0) fail("division by zero at pc " + std::to_string(pc));
      wr(a / b);
      break;
    case Op::AND:
      wr(a & b);
      break;
    case Op::OR:
      wr(a | b);
      break;
    case Op::XOR:
      wr(a ^ b);
      break;
    case Op::ANDN:
      wr(a & ~b);
      break;
    case Op::SLL:
      wr(a << (b & 63));
      break;
    case Op::SRL:
      wr(a >> (b & 63));
      break;
    case Op::SRA:
      wr(static_cast<u64>(static_cast<i64>(a) >> (b & 63)));
      break;
    case Op::LDX:
    case Op::LDUW:
    case Op::LDUB: {
      const u64 ea = a + b;
      const u64 v = mem_.load(ea, ins.mem_size);
      const cache::AccessOutcome out = hier_.load(ea);
      cost += out.stall_cycles;
      count_outcome(out, pc, ea);
      wr(v);
      break;
    }
    case Op::STX:
    case Op::STW:
    case Op::STB: {
      const u64 ea = a + b;
      mem_.store(ea, ins.mem_size, regs_[ins.rd]);
      const cache::AccessOutcome out = hier_.store(ea);
      cost += out.stall_cycles;
      count_outcome(out, pc, ea);
      break;
    }
    case Op::PREFETCH: {
      const u64 ea = a + b;
      // Non-faulting: silently dropped when the page is unmapped.
      if (mem_.find_segment(ea) != nullptr) {
        const cache::AccessOutcome out = hier_.prefetch(ea);
        if (out.ec_ref) count_event(HwEvent::EC_ref, 1, pc, true, ea);
      }
      break;
    }
    case Op::BR: {
      const bool taken = eval_cond(ins.cond);
      const u64 target = pc + static_cast<u64>(ins.imm);
      if (taken) {
        if (ins.annul && ins.cond == isa::Cond::A) {
          // ba,a: delay slot annulled, jump immediately.
          next_pc = target;
          next_npc = target + 4;
        } else {
          next_npc = target;
        }
      } else if (ins.annul) {
        annul_next_ = true;
      }
      break;
    }
    case Op::CALL: {
      regs_[isa::kLink] = pc;
      next_npc = pc + static_cast<u64>(ins.imm);
      call_stack_.push_back(pc);
      break;
    }
    case Op::JMPL: {
      const u64 target = a + b;
      DSP_CHECK(target % 4 == 0, "jmpl to misaligned target");
      wr(pc);
      next_npc = target;
      // A return (jmpl %g0, %o7 + 8) pops the shadow call stack.
      if (ins.rd == 0 && ins.rs1 == isa::kLink && !call_stack_.empty()) {
        call_stack_.pop_back();
      }
      break;
    }
    case Op::HCALL:
      exec_hcall(ins.imm, pc);
      break;
    default:
      fail("unhandled opcode");
  }

  cycles_ += cost;
  ++instructions_;
  if (time_events_due()) fire_time_events(pc);

  // This instruction retired: pending deliveries skid one instruction closer.
  for (auto& p : pending_) {
    if (p.skid_remaining > 0) --p.skid_remaining;
  }

  pc_ = next_pc;
  npc_ = next_npc;
}

RunResult Cpu::run(u64 max_instructions) {
  static const obs::SpanName kRunSpan = obs::span_name("machine.run");
  static const obs::Counter kInstructions = obs::counter("machine.instructions");
  static const obs::Counter kCycles = obs::counter("machine.cycles");
  const obs::ScopedSpan span(kRunSpan);
  const u64 instr0 = instructions_;
  const u64 cyc0 = cycles_;
  while (!halted_) {
    step();
    if (max_instructions != 0 && instructions_ - instr0 >= max_instructions) break;
  }
  if (halted_) {
    // Deliveries still skidding when the program exits are flushed at the
    // exit point (the signal arrives during process teardown).
    for (auto& p : pending_) p.skid_remaining = 0;
    deliver_due();
  }
  RunResult r;
  r.halted = halted_;
  r.exit_code = exit_code_;
  r.instructions = instructions_ - instr0;
  r.cycles = cycles_ - cyc0;
  kInstructions.add(r.instructions);
  kCycles.add(r.cycles);
  return r;
}

}  // namespace dsprof::machine

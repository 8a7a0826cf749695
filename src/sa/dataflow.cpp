#include "sa/dataflow.hpp"

#include <algorithm>
#include <array>
#include <optional>

namespace dsprof::sa {

using machine::TriggerKind;

namespace {

constexpr u32 kAllRegs = 0xFFFFFFFEu;  // every register except %g0

u32 bit(u8 r) { return r == 0 ? 0u : (1u << r); }

}  // namespace

// ---------------------------------------------------------------------------
// Per-instruction register facts

RegFacts reg_facts(const isa::Instr& ins) {
  RegFacts f;
  const isa::OpInfo& info = isa::op_info(ins.op);
  // Written register: the backtracking clobber scan's rule, verbatim
  // (backtrack_table.cpp): loads and ALU-type ops (including SETHI and JMPL)
  // write rd, CALL writes the link register, everything else writes nothing.
  if (info.is_load || (!info.is_store && !info.is_branch && !info.is_call &&
                       !info.is_prefetch && ins.op != isa::Op::ILLEGAL &&
                       ins.op != isa::Op::HCALL)) {
    f.def = ins.rd;
  }
  if (info.is_call) f.def = isa::kLink;
  if (f.def == 0) f.def = kNoReg;  // %g0 writes are dropped

  switch (ins.op) {
    case isa::Op::ILLEGAL:
    case isa::Op::SETHI:
    case isa::Op::BR:    // reads the condition codes, no registers
    case isa::Op::CALL:
      break;
    case isa::Op::HCALL:
      // Host calls read their arguments from %o0-%o5 (machine/hostcall.hpp);
      // which ones depends on the service code, so read them all.
      for (u8 r = isa::O0; r <= isa::O5; ++r) f.uses |= bit(r);
      break;
    default:
      if (info.is_store) f.uses |= bit(ins.rd);  // rd is the data source
      f.uses |= bit(ins.rs1);
      if (!ins.has_imm) f.uses |= bit(ins.rs2);
      break;
  }
  return f;
}

bool is_identity_move(const isa::Instr& ins) {
  if (ins.op != isa::Op::OR && ins.op != isa::Op::ADD) return false;
  const bool zero_second = ins.has_imm ? ins.imm == 0 : ins.rs2 == 0;
  if (ins.rs1 == ins.rd && zero_second) return true;                      // rd op= 0
  if (ins.rs1 == 0 && !ins.has_imm && ins.rs2 == ins.rd) return true;    // rd = 0 op rd
  return false;
}

// ---------------------------------------------------------------------------
// ProgramFacts

ProgramFacts ProgramFacts::build(const sym::Image& img, const Cfg& cfg) {
  ProgramFacts pf;
  pf.cfg = &cfg;
  pf.text_base = img.text_base;
  const size_t n = img.text_words.size();
  pf.code.resize(n);
  for (size_t i = 0; i < n; ++i) pf.code[i] = isa::decode(img.text_words[i]);

  const size_t nb = cfg.blocks().size();
  pf.preds.assign(nb, {});
  for (size_t b = 0; b < nb; ++b) {
    for (const u32 s : cfg.blocks()[b].succ) pf.preds[s].push_back(static_cast<u32>(b));
  }

  // Reverse postorder: iterative DFS from the entry block, then from every
  // function entry (uncalled functions get analyzed too), then stragglers.
  std::vector<u32> roots;
  if (const BasicBlock* eb = cfg.block_at(img.entry)) {
    roots.push_back(static_cast<u32>(eb - cfg.blocks().data()));
  }
  for (const auto& f : img.symtab.functions()) {
    if (const BasicBlock* fb = cfg.block_at(f.lo)) {
      roots.push_back(static_cast<u32>(fb - cfg.blocks().data()));
    }
  }
  for (u32 b = 0; b < nb; ++b) roots.push_back(b);

  std::vector<u8> state(nb, 0);  // 0 unvisited, 1 on stack, 2 done
  std::vector<u32> postorder;
  postorder.reserve(nb);
  std::vector<std::pair<u32, size_t>> stack;
  for (const u32 root : roots) {
    if (state[root] != 0) continue;
    state[root] = 1;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [b, next] = stack.back();
      const auto& succ = cfg.blocks()[b].succ;
      if (next < succ.size()) {
        const u32 s = succ[next++];
        if (state[s] == 0) {
          state[s] = 1;
          stack.emplace_back(s, 0);
        }
      } else {
        state[b] = 2;
        postorder.push_back(b);
        stack.pop_back();
      }
    }
  }
  pf.rpo.assign(postorder.rbegin(), postorder.rend());
  pf.rpo_index.assign(nb, 0);
  for (size_t i = 0; i < pf.rpo.size(); ++i) pf.rpo_index[pf.rpo[i]] = static_cast<u32>(i);
  return pf;
}

size_t ProgramFacts::block_lo_word(u32 b) const {
  return word_of(cfg->blocks()[b].lo);
}

size_t ProgramFacts::block_hi_word(u32 b) const {
  return word_of(cfg->blocks()[b].hi);
}

bool ProgramFacts::may_annul(size_t w) const {
  if (!cfg->is_delay_slot(pc_of(w)) || w == 0) return false;
  const isa::Instr& br = code[w - 1];
  return br.op == isa::Op::BR && br.annul;
}

// ---------------------------------------------------------------------------
// Liveness

namespace {

// Blocks whose exit has every register live: no static successor, or an
// effective terminator (the instruction before the slot when the block ends
// in transfer+slot) that hands control to code whose reads we cannot see —
// calls, indirect jumps and host calls.
bool exits_to_unknown(const ProgramFacts& pf, u32 b) {
  const BasicBlock& blk = pf.cfg->blocks()[b];
  if (blk.succ.empty()) return true;
  size_t last = pf.block_hi_word(b) - 1;
  if (pf.cfg->is_delay_slot(pf.pc_of(last)) && last > pf.block_lo_word(b)) --last;
  const isa::Op op = pf.code[last].op;
  return op == isa::Op::CALL || op == isa::Op::JMPL || op == isa::Op::HCALL;
}

// Live registers before word `w`, given those live after it. An annullable
// delay slot may be skipped: its def never kills.
u32 live_before(const ProgramFacts& pf, size_t w, u32 live) {
  const RegFacts f = reg_facts(pf.code[w]);
  if (!pf.may_annul(w) && f.def != kNoReg) live &= ~bit(f.def);
  return live | f.uses;
}

}  // namespace

Liveness Liveness::build(const ProgramFacts& pf) {
  Liveness lv;
  const size_t n = pf.num_blocks();
  lv.live_out_.assign(n, 0);
  std::vector<u32> live_in(n, 0);
  // Worklist to the fixpoint, seeded with every block in evaluation order
  // (reverse RPO); a block whose live-in set grows requeues its
  // predecessors, which read it.
  std::vector<u32> work(pf.rpo.rbegin(), pf.rpo.rend());
  std::vector<u8> queued(n, 1);
  for (size_t head = 0; head < work.size(); ++head) {
    const u32 b = work[head];
    queued[b] = 0;
    u32 live = exits_to_unknown(pf, b) ? kAllRegs : 0;
    for (const u32 s : pf.cfg->blocks()[b].succ) live |= live_in[s];
    lv.live_out_[b] = live;
    const size_t lo = pf.block_lo_word(b);
    for (size_t w = pf.block_hi_word(b); w-- > lo;) live = live_before(pf, w, live);
    ++lv.iterations_;
    if ((live_in[b] | live) == live_in[b]) continue;
    live_in[b] |= live;
    for (const u32 p : pf.preds[b]) {
      if (!queued[p]) {
        queued[p] = 1;
        work.push_back(p);
      }
    }
  }

  // Dead-write scan: replay each reachable block backward from its live-out
  // set; a non-memory ALU definition of a register that is dead right after
  // it executes is a wasted instruction.
  for (u32 b = 0; b < pf.num_blocks(); ++b) {
    if (!pf.cfg->blocks()[b].reachable) continue;
    u32 live = lv.live_out_[b];
    const size_t lo = pf.block_lo_word(b);
    for (size_t w = pf.block_hi_word(b); w-- > lo;) {
      const isa::Instr& ins = pf.code[w];
      const isa::OpInfo& info = isa::op_info(ins.op);
      const RegFacts f = reg_facts(ins);
      const bool reportable = f.def != kNoReg && !info.is_load && !info.is_call &&
                              !info.is_jmpl && !is_identity_move(ins) &&
                              pf.cfg->instr_reachable(pf.pc_of(w)) &&
                              !pf.cfg->is_delay_slot(pf.pc_of(w));
      if (reportable && (live & bit(f.def)) == 0) {
        lv.dead_.push_back(DeadWrite{pf.pc_of(w), f.def});
      }
      live = live_before(pf, w, live);
    }
  }
  std::sort(lv.dead_.begin(), lv.dead_.end(),
            [](const DeadWrite& a, const DeadWrite& b) { return a.pc < b.pc; });
  return lv;
}

// ---------------------------------------------------------------------------
// Attribution coverage

const char* ea_class_name(EaClass c) {
  switch (c) {
    case EaClass::Attributable: return "attributable";
    case EaClass::Clobbered: return "clobbered";
    case EaClass::Unknown: return "unknown";
  }
  return "?";
}

AttributionCoverage AttributionCoverage::build(const sym::Image& img, const Cfg& cfg,
                                               const BacktrackTable& table) {
  AttributionCoverage ac;
  ac.text_base_ = img.text_base;
  const size_t n = img.text_words.size();
  std::vector<isa::Instr> code(n);
  for (size_t i = 0; i < n; ++i) code[i] = isa::decode(img.text_words[i]);

  // --- the issue-reachable delivery set -----------------------------------
  // Mirror cpu.cpp's issue sequence: every pc_ a step can start with. That is
  // the address-next word for straight-line code, slot + target for delayed
  // transfers, the fall-through after an annul step (the slot is fetched but
  // not retired), and the word after a reachable Exit hcall (pending
  // deliveries are flushed there at halt).
  ac.delivery_.assign(n + 1, 0);
  auto in_text_word = [&](u64 pc) -> std::optional<size_t> {
    // One past the end (w == n) is a legitimate delivery point: the machine
    // can hold it as the next-to-issue PC for one step before faulting or
    // halting, and the backtrack table has an entry for it.
    if (pc < img.text_base || (pc & 3) != 0) return std::nullopt;
    const size_t w = static_cast<size_t>((pc - img.text_base) >> 2);
    if (w > n) return std::nullopt;
    return w;
  };
  auto mark = [&](size_t w) {
    if (w <= n) ac.delivery_[w] = 1;
  };

  // An indirect jump's target is only statically known for the return idiom
  // (jmpl %g0, %o7 + 8) when %o7 provably holds a call PC; otherwise fall
  // back to "anywhere" — sound, just less precise. Likewise for a delayed
  // transfer sitting in another transfer's delay slot: the machine's
  // overlapping-npc behavior is not modelled here, so give up precision
  // rather than risk missing a delivery point.
  bool universal = false;
  for (size_t w = 0; w < n && !universal; ++w) {
    if (!cfg.instr_reachable(img.text_base + 4 * w)) continue;
    const isa::Instr& ins = code[w];
    if (ins.op == isa::Op::JMPL &&
        !(ins.rd == 0 && ins.rs1 == isa::kLink && ins.has_imm && ins.imm == 8)) {
      universal = true;  // computed jump: target unknowable
    }
    if (ins.op != isa::Op::CALL && reg_facts(ins).def == isa::kLink) {
      universal = true;  // %o7 no longer guaranteed to hold a call PC
    }
    if (isa::op_info(ins.op).delayed && cfg.is_delay_slot(img.text_base + 4 * w)) {
      universal = true;  // transfer in a delay slot: npc interleaving
    }
  }

  if (universal) {
    std::fill(ac.delivery_.begin(), ac.delivery_.end(), u8{1});
  } else {
    // The entry word itself can head a step (no delivery can be pending that
    // early, but marking it costs nothing and keeps the set a superset of
    // every PC the machine ever holds as next-to-issue).
    if (auto ew = in_text_word(img.entry)) mark(*ew);
    bool has_ret = false;
    for (size_t w = 0; w < n; ++w) {
      if (!cfg.instr_reachable(img.text_base + 4 * w)) continue;
      const isa::Instr& ins = code[w];
      switch (ins.op) {
        case isa::Op::ILLEGAL:
          break;  // the machine faults: nothing is issued after
        case isa::Op::BR: {
          const bool taken_possible = ins.cond != isa::Cond::N;
          const bool untaken_possible = ins.cond != isa::Cond::A;
          const u64 target = img.text_base + 4 * w + static_cast<u64>(ins.disp);
          if (ins.annul && ins.cond == isa::Cond::A) {
            // ba,a: the slot is never issued; control moves straight on.
            if (auto tw = in_text_word(target)) mark(*tw);
          } else {
            mark(w + 1);  // the slot is issued (possibly as an annul step)
            if (taken_possible) {
              if (auto tw = in_text_word(target)) mark(*tw);
            }
            // Annulled slots do not execute: the issue point after the annul
            // step is the fall-through, which instruction-level reachability
            // may not cover (e.g. bn,a). Mark it here.
            if (ins.annul && untaken_possible) mark(w + 2);
          }
          break;
        }
        case isa::Op::CALL: {
          mark(w + 1);  // slot
          const u64 target = img.text_base + 4 * w + static_cast<u64>(ins.disp);
          if (auto tw = in_text_word(target)) mark(*tw);
          break;
        }
        case isa::Op::JMPL:
          mark(w + 1);  // slot; targets handled below (return idiom only)
          has_ret = true;
          break;
        default:
          // Straight-line issue. For an Exit hcall this is the flush-at-halt
          // delivery point; for everything else the next fetch.
          mark(w + 1);
          break;
      }
    }
    if (has_ret) {
      // Return targets: the join after any reachable call site.
      for (size_t w = 0; w < n; ++w) {
        if (code[w].op == isa::Op::CALL && cfg.instr_reachable(img.text_base + 4 * w)) {
          mark(w + 2);
        }
      }
    }
  }

  // --- classify every memory op -------------------------------------------
  const u32 window = table.window();
  for (size_t p = 0; p < n; ++p) {
    const isa::Instr& ins = code[p];
    const isa::OpInfo& info = isa::op_info(ins.op);
    if (!info.is_load && !info.is_store && !info.is_prefetch) continue;
    MemOpFact fact;
    fact.pc = img.text_base + 4 * p;
    fact.is_load = info.is_load;
    fact.is_store = info.is_store;
    fact.is_prefetch = info.is_prefetch;
    fact.reachable = cfg.instr_reachable(fact.pc);

    // Loads can be blamed by both Load- and LoadStore-triggered counters;
    // stores and prefetches only by LoadStore ones.
    const std::array<TriggerKind, 2> kinds = {
        info.is_load ? TriggerKind::Load : TriggerKind::LoadStore,
        TriggerKind::LoadStore};
    const size_t nkinds = info.is_load ? 2 : 1;

    bool attributable = false;
    for (size_t dw = p + 1; dw <= std::min(p + window, n); ++dw) {
      if (ac.delivery_[dw] == 0) continue;
      bool resolves = false;
      bool ea_ok = false;
      for (size_t k = 0; k < nkinds; ++k) {
        const auto se = table.static_entry(img.text_base + 4 * dw, kinds[k]);
        if (se.found && se.candidate_pc == fact.pc) {
          resolves = true;
          ea_ok = ea_ok || se.ea_static;
        }
      }
      fact.resolving_deliveries += resolves ? 1 : 0;
      fact.ea_static_deliveries += ea_ok ? 1 : 0;
      attributable = attributable || ea_ok;
    }
    fact.cls = attributable
                   ? EaClass::Attributable
                   : (fact.resolving_deliveries > 0 ? EaClass::Clobbered : EaClass::Unknown);

    // Address-order distance to the first downstream EA-register writer.
    if (const auto ea = isa::ea_expr(ins)) {
      for (size_t q = p + 1; q < std::min(p + window, n); ++q) {
        const RegFacts f = reg_facts(code[q]);
        if (f.def != kNoReg &&
            (f.def == ea->rs1 || (!ea->has_imm && f.def == ea->rs2))) {
          fact.clobber_depth = static_cast<u32>(q - p);
          break;
        }
      }
    }

    ac.reachable_ += fact.reachable ? 1 : 0;
    ac.attributable_ += (fact.reachable && fact.cls == EaClass::Attributable) ? 1 : 0;
    ac.ops_.push_back(fact);
  }
  return ac;
}

const MemOpFact* AttributionCoverage::find(u64 pc) const {
  const auto it = std::lower_bound(
      ops_.begin(), ops_.end(), pc,
      [](const MemOpFact& f, u64 target) { return f.pc < target; });
  if (it == ops_.end() || it->pc != pc) return nullptr;
  return &*it;
}

bool AttributionCoverage::is_delivery_point(u64 pc) const {
  if (pc < text_base_ || (pc & 3) != 0) return false;
  const size_t w = static_cast<size_t>((pc - text_base_) >> 2);
  return w < delivery_.size() && delivery_[w] != 0;
}

double AttributionCoverage::fraction() const {
  if (reachable_ == 0) return 1.0;
  return static_cast<double>(attributable_) / static_cast<double>(reachable_);
}

std::vector<FunctionCoverage> AttributionCoverage::by_function(const sym::Image& img) const {
  std::vector<FunctionCoverage> rows;
  for (const auto& f : img.symtab.functions()) {
    FunctionCoverage row;
    row.name = f.name;
    row.lo = f.lo;
    row.hi = f.hi;
    for (const auto& op : ops_) {
      if (op.pc < f.lo || op.pc >= f.hi) continue;
      ++row.mem_ops;
      if (!op.reachable) continue;
      ++row.reachable_mem_ops;
      row.attributable += op.cls == EaClass::Attributable ? 1 : 0;
    }
    row.fraction = row.reachable_mem_ops == 0
                       ? 1.0
                       : static_cast<double>(row.attributable) /
                             static_cast<double>(row.reachable_mem_ops);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const FunctionCoverage& a, const FunctionCoverage& b) { return a.lo < b.lo; });
  return rows;
}

}  // namespace dsprof::sa

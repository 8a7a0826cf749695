// AST -> s3 code generation.
//
// Register conventions (flat file, no register windows):
//   %g1-%g6  expression temporaries (caller-saved)
//   %g7      assembler scratch for 64-bit constants (reserved)
//   %o0-%o5  argument/result registers (caller-saved)
//   %o6      stack pointer, %o7 link
//   %l0-%l7, %i0-%i5  register homes for params/locals (callee-saved)
//   %i6/%i7  reserved
//
// Frame layout (from %sp, grows down, 16-byte aligned):
//   [sp+0]                 saved %o7
//   [sp+8 ...]             saved callee-saved homes
//   [...]                  frame-homed variables (when >14 vars)
//   [...]                  staging stack (argument values and temps saved
//                          across calls; stack-disciplined so nested calls
//                          inside argument expressions cannot clobber it)
#include <functional>
#include <optional>
#include <unordered_map>

#include "isa/assembler.hpp"
#include "machine/hostcall.hpp"
#include "scc/builder.hpp"
#include "scc/compile.hpp"

namespace dsprof::scc {

namespace {

using isa::Cond;
using isa::Instr;
using isa::LabelId;
using isa::Op;
using isa::Reg;

constexpr Reg kTempRegs[] = {isa::G1, isa::G2, isa::G3, isa::G4, isa::G5, isa::G6};
constexpr size_t kNumTemps = 6;
constexpr Reg kHomeRegs[] = {isa::L0, isa::L1, isa::L2, isa::L3, isa::L4, isa::L5,
                             isa::L6, isa::L7, isa::I0, isa::I1, isa::I2, isa::I3,
                             isa::I4, isa::I5};
constexpr size_t kNumHomeRegs = 14;
constexpr Reg kScratch = isa::G7;

Op load_op_for(unsigned size) {
  switch (size) {
    case 1: return Op::LDUB;
    case 4: return Op::LDUW;
    case 8: return Op::LDX;
  }
  fail("bad load size");
}

Op store_op_for(unsigned size) {
  switch (size) {
    case 1: return Op::STB;
    case 4: return Op::STW;
    case 8: return Op::STX;
  }
  fail("bad store size");
}

Cond cond_for(BinOp op) {
  switch (op) {
    case BinOp::Lt: return Cond::L;
    case BinOp::Le: return Cond::LE;
    case BinOp::Gt: return Cond::G;
    case BinOp::Ge: return Cond::GE;
    case BinOp::Eq: return Cond::E;
    case BinOp::Ne: return Cond::NE;
    default: fail("not a comparison");
  }
}

Cond negate(Cond c) {
  switch (c) {
    case Cond::L: return Cond::GE;
    case Cond::LE: return Cond::G;
    case Cond::G: return Cond::LE;
    case Cond::GE: return Cond::L;
    case Cond::E: return Cond::NE;
    case Cond::NE: return Cond::E;
    case Cond::LU: return Cond::GEU;
    case Cond::LEU: return Cond::GU;
    case Cond::GU: return Cond::LEU;
    case Cond::GEU: return Cond::LU;
    default: fail("cannot negate condition");
  }
}

/// A value held in a register; `owned` temps must be released.
struct RVal {
  Reg reg = isa::G0;
  bool owned = false;
};

class Codegen {
 public:
  Codegen(const Module& m, const CompileOptions& opt) : m_(m), opt_(opt) {}

  sym::Image run();

 private:
  // --- emission wrappers with hwcprof bookkeeping ---------------------------
  u64 tag(u32 line, i32 memref) const {
    return (static_cast<u64>(memref + 1) << 32) | line;
  }
  void emit(const Instr& ins, u32 line, i32 memref = -1) {
    asm_.emit(ins, tag(line, memref));
    const isa::OpInfo& info = isa::op_info(ins.op);
    if (info.is_load || info.is_store || info.is_prefetch) {
      since_mem_ = 0;
    } else {
      ++since_mem_;
    }
  }
  void set64(Reg rd, i64 v, u32 line) {
    asm_.set64(rd, v, kScratch, tag(line, -1));
    since_mem_ += 6;  // set64 never emits memory ops
  }
  /// -xhwcprof: keep `pad_nops` non-memory instructions between the last
  /// memory op and any join node (paper §2.1).
  void pad_before_join(u32 line) {
    if (!opt_.hwcprof || opt_.mutate_skip_nop_pad) return;
    while (since_mem_ < opt_.pad_nops) emit(isa::nop(), line);
  }
  void bind(LabelId l, u32 line) {
    pad_before_join(line);
    asm_.bind(l);
    since_mem_ = 1000;  // a join resets the window
  }
  /// Emit a control transfer and fill its delay slot (with a hoisted
  /// preceding instruction when legal, else a nop).
  void transfer(const std::function<void()>& emit_transfer, u32 line) {
    std::optional<std::pair<Instr, u64>> slot;
    if (opt_.mutate_mem_in_delay_slot) {
      // Mutation hook (testing only): hoist a trailing memory op into the
      // delay slot *before* the join padding runs — under the normal
      // ordering the pads land between the memory op and the transfer, so
      // the op could never reach the slot even with the hwcprof restriction
      // below disabled. since_mem_ is forced past the pad threshold so the
      // only violated invariant is the delay-slot one (rule isolation).
      slot = asm_.pop_last_plain();
      if (slot) {
        const isa::OpInfo& info = isa::op_info(slot->first.op);
        const bool is_mem = info.is_load || info.is_store || info.is_prefetch;
        if (is_mem) {
          since_mem_ = 1000;
        } else {
          asm_.emit(slot->first, slot->second);  // put it back
          slot.reset();
        }
      }
    }
    pad_before_join(line);
    if (!slot) {
      slot = asm_.pop_last_plain();
      if (slot) {
        const isa::OpInfo& info = isa::op_info(slot->first.op);
        const bool is_mem = info.is_load || info.is_store || info.is_prefetch;
        const bool is_nop = slot->first == isa::nop();
        // hwcprof rule: never schedule loads/stores into delay slots.
        if (is_nop || (opt_.hwcprof && is_mem)) {
          asm_.emit(slot->first, slot->second);  // put it back
          slot.reset();
        }
      }
    }
    emit_transfer();
    if (slot) {
      asm_.emit(slot->first, slot->second);
    } else {
      asm_.emit(isa::nop(), tag(line, -1));
    }
    since_mem_ = 1000;
  }
  void branch_to(Cond c, LabelId target, u32 line) {
    transfer([&] { asm_.emit_branch(c, target, false, true, tag(line, -1)); }, line);
  }
  void call_to(LabelId target, u32 line) {
    transfer([&] { asm_.emit_call(target, tag(line, -1)); }, line);
    since_mem_ = 1000;
  }

  // --- temporaries ----------------------------------------------------------
  Reg alloc_temp() {
    for (size_t i = 0; i < kNumTemps; ++i) {
      if (!temp_busy_[i]) {
        temp_busy_[i] = true;
        return kTempRegs[i];
      }
    }
    fail("expression too deep: temporary registers exhausted");
  }
  void free_temp(Reg r) {
    for (size_t i = 0; i < kNumTemps; ++i) {
      if (kTempRegs[i] == r) {
        DSP_CHECK(temp_busy_[i], "double free of temp");
        temp_busy_[i] = false;
        return;
      }
    }
    fail("freeing a non-temp register");
  }
  void release(const RVal& v) {
    if (v.owned) free_temp(v.reg);
  }
  /// Ensure the value is in an owned temp (copying a variable home if needed).
  RVal own(RVal v, u32 line) {
    if (v.owned) return v;
    const Reg t = alloc_temp();
    emit(isa::mov_rr(t, v.reg), line);
    return {t, true};
  }

  // --- memref side table ----------------------------------------------------
  i32 memref_member(const StructDef* s, u32 decl_index) {
    if (!emit_memrefs_) return -1;
    sym::MemRef r;
    r.kind = sym::MemRef::Kind::StructMember;
    r.aggregate = types_.struct_id(s);
    r.member = TypeEmitter::member_index(s, decl_index);
    memrefs_.push_back(r);
    return static_cast<i32>(memrefs_.size() - 1);
  }
  i32 memref_scalar(const Type& t) {
    if (!emit_memrefs_) return -1;
    sym::MemRef r;
    r.kind = sym::MemRef::Kind::Scalar;
    r.aggregate = types_.scalar_id(t);
    memrefs_.push_back(r);
    return static_cast<i32>(memrefs_.size() - 1);
  }
  i32 memref_unidentified() {
    if (!emit_memrefs_) return -1;
    sym::MemRef r;
    r.kind = sym::MemRef::Kind::Unidentified;
    memrefs_.push_back(r);
    return static_cast<i32>(memrefs_.size() - 1);
  }

  // --- per-function helpers -------------------------------------------------
  struct VarHome {
    bool in_reg = false;
    Reg reg = isa::G0;
    i64 frame_off = 0;
  };

  void gen_function(const Function& f);
  void gen_stmts(const std::vector<Stmt>& body);
  void gen_stmt(const StmtNode& s);
  RVal gen_expr(const ExprNode& e, u32 line);
  RVal gen_call(const ExprNode& e, u32 line);
  void gen_cond_branch_false(const ExprNode& cond, LabelId if_false, u32 line);
  void gen_assign(const StmtNode& s);
  /// Address of a memory lvalue as (base register, constant offset, memref).
  struct MemAddr {
    RVal base;
    i64 off = 0;
    i32 memref = -1;
    unsigned size = 8;
  };
  MemAddr gen_mem_addr(const ExprNode& e, u32 line);

  // --- module-level state ---------------------------------------------------
  const Module& m_;
  CompileOptions opt_;
  isa::Assembler asm_{mem::kTextBase};
  sym::SymbolTable symtab_;
  TypeEmitter types_{symtab_.types()};
  std::vector<sym::MemRef> memrefs_;
  bool emit_memrefs_ = false;
  std::unordered_map<const Function*, LabelId> func_labels_;
  u32 since_mem_ = 1000;

  // --- per-function state ---------------------------------------------------
  const Function* cur_ = nullptr;
  std::vector<VarHome> homes_;
  bool temp_busy_[kNumTemps] = {};
  i64 frame_size_ = 0;
  i64 stage_off_ = 0;   // base of the staging stack in the frame
  i64 stage_top_ = 0;   // current staging depth (slots)
  LabelId epilogue_ = 0;
  std::vector<LabelId> loop_heads_, loop_ends_;
  size_t reg_home_count_ = 0;

  static constexpr i64 kStageSlots = 48;
  i64 stage_slot_off(i64 idx) const { return stage_off_ + 8 * idx; }
  i64 stage_push(Reg r, u32 line) {
    DSP_CHECK(stage_top_ < kStageSlots, "staging stack overflow (expression too complex)");
    emit(isa::store_ri(Op::STX, r, isa::kSp, stage_slot_off(stage_top_)), line,
         memref_unidentified());
    return stage_top_++;
  }
};

sym::Image Codegen::run() {
  emit_memrefs_ = opt_.hwcprof && opt_.dwarf && !opt_.mutate_skip_memref;

  for (const auto& f : m_.functions()) {
    func_labels_[f.get()] = asm_.new_label(f->name());
  }

  // _start shim: call main, exit with its result.
  const Function* main_fn = nullptr;
  for (const auto& f : m_.functions()) {
    if (f->name() == "main") main_fn = f.get();
  }
  DSP_CHECK(main_fn != nullptr, "module has no main()");
  DSP_CHECK(main_fn->param_count() == 0, "main() must take no parameters");
  const LabelId start = asm_.new_label("_start");
  asm_.bind(start);
  const u64 start_pos = asm_.position();
  asm_.emit_call(func_labels_[main_fn], 0);
  asm_.emit(isa::nop(), 0);
  asm_.emit(isa::hcall(static_cast<i64>(machine::HostCall::Exit)), 0);
  asm_.emit(isa::nop(), 0);  // not reached
  const u64 start_end = asm_.position();

  struct FuncSpan {
    const Function* fn;
    u64 lo_pos, hi_pos;
  };
  std::vector<FuncSpan> spans;
  for (const auto& f : m_.functions()) {
    const u64 lo = asm_.position();
    gen_function(*f);
    spans.push_back({f.get(), lo, asm_.position()});
  }

  types_.define_all();
  isa::Assembler::Output out = asm_.finish();

  sym::Image img;
  img.text_words = std::move(out.words);
  img.entry = out.base + 4 * start_pos;

  // Data segment: globals with 8-byte little-endian initializers.
  img.data_size = m_.data_segment_size();
  img.data_init.assign(img.data_size, 0);
  for (const auto& g : m_.globals()) {
    u64 v = static_cast<u64>(g.init);
    for (unsigned b = 0; b < g.type.size(); ++b) {
      img.data_init[g.offset + b] = static_cast<u8>(v >> (8 * b));
    }
  }

  // Symbol tables. The hwcprof flag states what the compiler *claims*
  // (mutate_skip_memref keeps the claim while breaking the contract, so the
  // linter's missing-descriptor rule can catch the mismatch).
  symtab_.set_hwcprof(opt_.hwcprof && opt_.dwarf);
  symtab_.set_has_branch_targets(opt_.dwarf);
  if (opt_.dwarf) {
    symtab_.set_branch_targets(std::move(out.branch_targets));
  } else {
    symtab_.set_branch_targets({});
  }
  symtab_.add_function({"_start", out.base + 4 * start_pos, out.base + 4 * start_end});
  for (const auto& s : spans) {
    symtab_.add_function({s.fn->name(), out.base + 4 * s.lo_pos, out.base + 4 * s.hi_pos});
  }
  u32 prev_line = 0;
  for (size_t i = 0; i < out.tags.size(); ++i) {
    const u64 t = out.tags[i];
    const u64 pc = out.base + 4 * i;
    const u32 line = static_cast<u32>(t & 0xFFFFFFFF);
    const u32 mref = static_cast<u32>(t >> 32);
    if (line != 0 && line != prev_line) {
      symtab_.add_line(pc, line);
      prev_line = line;
    }
    if (mref != 0) symtab_.add_memref(pc, memrefs_[mref - 1]);
  }
  for (const auto& [line, text] : m_.source_lines()) symtab_.add_source_line(line, text);

  img.symtab = std::move(symtab_);
  return img;
}

void Codegen::gen_function(const Function& f) {
  cur_ = &f;
  for (bool& b : temp_busy_) b = false;
  loop_heads_.clear();
  loop_ends_.clear();

  // Variable homes: first 14 in callee-saved registers, the rest in frame.
  const auto& vars = f.vars();
  homes_.assign(vars.size(), VarHome{});
  reg_home_count_ = std::min(vars.size(), kNumHomeRegs);
  size_t frame_vars = vars.size() > kNumHomeRegs ? vars.size() - kNumHomeRegs : 0;

  // Frame layout.
  const i64 saved_regs_off = 8;  // after saved %o7
  const i64 frame_vars_off = saved_regs_off + 8 * static_cast<i64>(reg_home_count_);
  stage_off_ = frame_vars_off + 8 * static_cast<i64>(frame_vars);
  stage_top_ = 0;
  frame_size_ = static_cast<i64>(round_up(static_cast<u64>(stage_off_ + 8 * kStageSlots), 16));

  for (size_t i = 0; i < vars.size(); ++i) {
    if (i < kNumHomeRegs) {
      homes_[i] = {true, kHomeRegs[i], 0};
    } else {
      homes_[i] = {false, isa::G0, frame_vars_off + 8 * static_cast<i64>(i - kNumHomeRegs)};
    }
  }

  const u32 line = f.decl_line();
  since_mem_ = 1000;
  asm_.bind(func_labels_.at(&f));

  // Prologue.
  emit(isa::alu_ri(Op::ADD, isa::kSp, isa::kSp, -frame_size_), line);
  emit(isa::store_ri(Op::STX, isa::kLink, isa::kSp, 0), line, memref_unidentified());
  for (size_t i = 0; i < reg_home_count_; ++i) {
    emit(isa::store_ri(Op::STX, kHomeRegs[i], isa::kSp, saved_regs_off + 8 * static_cast<i64>(i)),
         line, memref_unidentified());
  }
  for (size_t i = 0; i < f.param_count(); ++i) {
    const Reg arg = static_cast<Reg>(isa::O0 + i);
    if (homes_[i].in_reg) {
      emit(isa::mov_rr(homes_[i].reg, arg), line);
    } else {
      emit(isa::store_ri(Op::STX, arg, isa::kSp, homes_[i].frame_off), line,
           memref_scalar(vars[i].type));
    }
  }

  epilogue_ = asm_.new_label(f.name() + ".epilogue");
  gen_stmts(f.body());

  // Implicit `return 0` when control falls off the end.
  emit(isa::mov_ri(isa::O0, 0), line);

  bind(epilogue_, line);
  for (size_t i = 0; i < reg_home_count_; ++i) {
    emit(isa::load_ri(Op::LDX, kHomeRegs[i], isa::kSp, saved_regs_off + 8 * static_cast<i64>(i)),
         line, memref_unidentified());
  }
  emit(isa::load_ri(Op::LDX, isa::kLink, isa::kSp, 0), line, memref_unidentified());
  emit(isa::alu_ri(Op::ADD, isa::kSp, isa::kSp, frame_size_), line);
  transfer([&] { asm_.emit(isa::ret(), tag(line, -1)); }, line);
}

void Codegen::gen_stmts(const std::vector<Stmt>& body) {
  for (const auto& s : body) gen_stmt(*s);
}

RVal Codegen::gen_call(const ExprNode& e, u32 line) {
  const i64 stage_base = stage_top_;
  // Save live expression temps to the staging stack and free the registers
  // (nested calls inside argument expressions push deeper, never clobbering).
  std::vector<std::pair<Reg, i64>> saved;
  for (size_t i = 0; i < kNumTemps; ++i) {
    if (temp_busy_[i]) {
      saved.emplace_back(kTempRegs[i], stage_push(kTempRegs[i], line));
      temp_busy_[i] = false;
    }
  }
  // Evaluate arguments onto the staging stack (an argument may itself
  // contain a call, which clobbers %o registers and temps).
  std::vector<i64> arg_slots;
  for (const auto& arg : e.args) {
    RVal a = gen_expr(*arg, line);
    arg_slots.push_back(stage_push(a.reg, line));
    release(a);
  }
  for (size_t i = 0; i < arg_slots.size(); ++i) {
    emit(isa::load_ri(Op::LDX, static_cast<Reg>(isa::O0 + i), isa::kSp,
                      stage_slot_off(arg_slots[i])),
         line, memref_unidentified());
  }
  call_to(func_labels_.at(e.callee), line);
  // Restore saved temps (marking them busy again), then move the result into
  // a freshly allocated temp — distinct from every restored register.
  for (const auto& [reg, slot] : saved) {
    emit(isa::load_ri(Op::LDX, reg, isa::kSp, stage_slot_off(slot)), line,
         memref_unidentified());
    for (size_t i = 0; i < kNumTemps; ++i) {
      if (kTempRegs[i] == reg) temp_busy_[i] = true;
    }
  }
  stage_top_ = stage_base;
  const Reg t = alloc_temp();
  if (opt_.mutate_dead_register_write) {
    // Mutation hook (testing only): this write is overwritten by the result
    // move below before anything can read it — the liveness-backed
    // dead-register-write rule (and only it) must flag this instruction.
    emit(isa::mov_ri(t, 0), line);
  }
  emit(isa::mov_rr(t, isa::O0), line);
  return {t, true};
}

Codegen::MemAddr Codegen::gen_mem_addr(const ExprNode& e, u32 line) {
  using K = ExprNode::Kind;
  MemAddr a;
  switch (e.kind) {
    case K::Member: {
      const StructDef* s = e.a->type.pointee_struct();
      a.base = gen_expr(*e.a, line);
      a.off = static_cast<i64>(s->offset_of(e.member));
      a.memref = memref_member(s, e.member);
      a.size = s->field_type(e.member).mem_size();
      return a;
    }
    case K::Index: {
      const Type elem = e.a->type.pointee();
      RVal base = gen_expr(*e.a, line);
      RVal idx = gen_expr(*e.b, line);
      RVal addr = own(std::move(base), line);
      if (elem.size() == 1) {
        emit(isa::alu_rr(Op::ADD, addr.reg, addr.reg, idx.reg), line);
        release(idx);
      } else {
        RVal scaled = own(std::move(idx), line);
        emit(isa::alu_ri(Op::SLL, scaled.reg, scaled.reg,
                         static_cast<i64>(log2_exact(elem.size()))),
             line);
        emit(isa::alu_rr(Op::ADD, addr.reg, addr.reg, scaled.reg), line);
        release(scaled);
      }
      a.base = addr;
      a.off = 0;
      a.memref = memref_scalar(elem);
      a.size = elem.mem_size();
      return a;
    }
    case K::Deref: {
      const Type elem = e.a->type.pointee();
      a.base = gen_expr(*e.a, line);
      a.off = 0;
      a.memref = memref_scalar(elem);
      a.size = elem.mem_size();
      return a;
    }
    case K::Global: {
      const Module::Global& g = m_.global(e.var);
      const Reg t = alloc_temp();
      set64(t, static_cast<i64>(mem::kDataBase + g.offset), line);
      a.base = {t, true};
      a.off = 0;
      a.memref = memref_scalar(g.type);
      a.size = g.type.mem_size();
      return a;
    }
    default:
      fail("not a memory lvalue");
  }
}

RVal Codegen::gen_expr(const ExprNode& e, u32 line) {
  using K = ExprNode::Kind;
  switch (e.kind) {
    case K::Int: {
      const Reg t = alloc_temp();
      set64(t, e.ival, line);
      return {t, true};
    }
    case K::Var: {
      const VarHome& h = homes_[e.var];
      if (h.in_reg) return {h.reg, false};
      const Reg t = alloc_temp();
      emit(isa::load_ri(Op::LDX, t, isa::kSp, h.frame_off), line,
           memref_scalar(cur_->vars()[e.var].type));
      if (opt_.mutate_clobber_ea_early) {
        // Mutation hook (testing only): an identity move of the stack
        // pointer — value-preserving, so the program is unchanged and the
        // load stays attributable via the delivery right after it, but the
        // verbatim clobber scan sees a writer of the load's EA register at
        // distance 1 (lint rule: ea-clobber-depth, and only it). Stack loads
        // are the observable site: temp-based loads already sit at depth 1
        // from register recycling.
        emit(isa::mov_rr(isa::kSp, isa::kSp), line);
      }
      return {t, true};
    }
    case K::Global:
    case K::Member:
    case K::Index:
    case K::Deref: {
      // Load into a register distinct from the base: a load that overwrote
      // its own address register would make the effective address
      // unrecoverable for the profiler (paper §2.2.3) — and real compilers
      // avoid it for scheduling reasons anyway.
      MemAddr a = gen_mem_addr(e, line);
      if (opt_.mutate_self_clobber_load && a.base.owned) {
        // Mutation hook (testing only): load into the address register
        // itself. Every delivery that resolves to this load loses the EA to
        // the self-clobber, so the dataflow classifier must report it
        // Clobbered (lint rule: statically-unprofilable-load, and only it).
        emit(isa::load_ri(load_op_for(a.size), a.base.reg, a.base.reg, a.off), line,
             a.memref);
        return a.base;
      }
      const Reg dst = alloc_temp();
      emit(isa::load_ri(load_op_for(a.size), dst, a.base.reg, a.off), line, a.memref);
      release(a.base);
      return {dst, true};
    }
    case K::PtrIndex: {
      const u64 elem = e.a->type.is_ptr_struct() ? e.a->type.pointee_struct()->size()
                                                 : e.a->type.pointee().size();
      RVal base = gen_expr(*e.a, line);
      RVal idx = own(gen_expr(*e.b, line), line);
      if (is_pow2(elem)) {
        if (elem > 1) {
          emit(isa::alu_ri(Op::SLL, idx.reg, idx.reg, static_cast<i64>(log2_exact(elem))),
               line);
        }
      } else {
        const Reg c = alloc_temp();
        set64(c, static_cast<i64>(elem), line);
        emit(isa::alu_rr(Op::MULX, idx.reg, idx.reg, c), line);
        free_temp(c);
      }
      emit(isa::alu_rr(Op::ADD, idx.reg, base.reg, idx.reg), line);
      release(base);
      return idx;
    }
    case K::Neg: {
      RVal a = gen_expr(*e.a, line);
      RVal dst = own(std::move(a), line);
      emit(isa::alu_rr(Op::SUB, dst.reg, isa::G0, dst.reg), line);
      return dst;
    }
    case K::Cast:
      return gen_expr(*e.a, line);
    case K::Call:
      return gen_call(e, line);
    case K::Bin:
      break;  // handled below
  }

  // Binary operators.
  const BinOp op = e.bop;
  if (is_compare(op)) {
    // Materialize 0/1: cmp; mov t,1; b<cc> done; nop; mov t,0; done:
    RVal a = gen_expr(*e.a, line);
    const bool imm_b = e.b->kind == K::Int && fits_signed(e.b->ival, 15);
    RVal b{};
    if (imm_b) {
      emit(isa::cmp_ri(a.reg, e.b->ival), line);
    } else {
      b = gen_expr(*e.b, line);
      emit(isa::cmp_rr(a.reg, b.reg), line);
    }
    release(a);
    if (!imm_b) release(b);
    const Reg t = alloc_temp();
    emit(isa::mov_ri(t, 1), line);
    const LabelId done = asm_.new_label("cmp.done");
    branch_to(cond_for(op), done, line);
    emit(isa::mov_ri(t, 0), line);
    bind(done, line);
    return {t, true};
  }

  // Immediate form for the common `x op constant` case.
  const bool imm_b = e.b->kind == K::Int && fits_signed(e.b->ival, 15);
  RVal a = gen_expr(*e.a, line);
  RVal b{};
  if (!imm_b) b = gen_expr(*e.b, line);
  const Reg dst = alloc_temp();
  auto binop = [&](Op machine_op) {
    if (imm_b) {
      emit(isa::alu_ri(machine_op, dst, a.reg, e.b->ival), line);
    } else {
      emit(isa::alu_rr(machine_op, dst, a.reg, b.reg), line);
    }
  };
  switch (op) {
    case BinOp::Add: binop(Op::ADD); break;
    case BinOp::Sub: binop(Op::SUB); break;
    case BinOp::Mul: binop(Op::MULX); break;
    case BinOp::Div: binop(Op::SDIVX); break;
    case BinOp::Mod: {
      // a - (a / b) * b
      binop(Op::SDIVX);
      if (imm_b) {
        emit(isa::alu_ri(Op::MULX, dst, dst, e.b->ival), line);
      } else {
        emit(isa::alu_rr(Op::MULX, dst, dst, b.reg), line);
      }
      emit(isa::alu_rr(Op::SUB, dst, a.reg, dst), line);
      break;
    }
    case BinOp::BitAnd: binop(Op::AND); break;
    case BinOp::BitOr: binop(Op::OR); break;
    case BinOp::BitXor: binop(Op::XOR); break;
    case BinOp::Shl: binop(Op::SLL); break;
    case BinOp::Shr: binop(Op::SRA); break;
    default: fail("unhandled binop");
  }
  release(a);
  if (!imm_b) release(b);
  return {dst, true};
}

void Codegen::gen_cond_branch_false(const ExprNode& cond, LabelId if_false, u32 line) {
  if (cond.kind == ExprNode::Kind::Bin && is_compare(cond.bop)) {
    RVal a = gen_expr(*cond.a, line);
    const bool imm_b = cond.b->kind == ExprNode::Kind::Int && fits_signed(cond.b->ival, 15);
    if (imm_b) {
      emit(isa::cmp_ri(a.reg, cond.b->ival), line);
    } else {
      RVal b = gen_expr(*cond.b, line);
      emit(isa::cmp_rr(a.reg, b.reg), line);
      release(b);
    }
    release(a);
    branch_to(negate(cond_for(cond.bop)), if_false, line);
    return;
  }
  RVal v = gen_expr(cond, line);
  emit(isa::cmp_ri(v.reg, 0), line);
  release(v);
  branch_to(Cond::E, if_false, line);
}

void Codegen::gen_assign(const StmtNode& s) {
  const u32 line = s.line;
  const ExprNode& lhs = *s.lhs;
  if (lhs.kind == ExprNode::Kind::Var) {
    const VarHome& h = homes_[lhs.var];
    RVal v = gen_expr(*s.e, line);
    if (h.in_reg) {
      emit(isa::mov_rr(h.reg, v.reg), line);
    } else {
      emit(isa::store_ri(Op::STX, v.reg, isa::kSp, h.frame_off), line,
           memref_scalar(cur_->vars()[lhs.var].type));
    }
    release(v);
    return;
  }
  RVal v = gen_expr(*s.e, line);
  MemAddr a = gen_mem_addr(lhs, line);
  emit(isa::store_ri(store_op_for(a.size), v.reg, a.base.reg, a.off), line, a.memref);
  release(a.base);
  release(v);
}

void Codegen::gen_stmt(const StmtNode& s) {
  using K = StmtNode::Kind;
  const u32 line = s.line;
  switch (s.kind) {
    case K::Assign:
      gen_assign(s);
      return;
    case K::If: {
      const LabelId else_l = asm_.new_label("if.else");
      gen_cond_branch_false(*s.e, else_l, line);
      gen_stmts(s.body);
      if (s.else_body.empty()) {
        bind(else_l, s.end_line);
      } else {
        const LabelId end_l = asm_.new_label("if.end");
        transfer([&] { asm_.emit_branch(Cond::A, end_l, false, true, tag(line, -1)); }, line);
        bind(else_l, line);
        gen_stmts(s.else_body);
        bind(end_l, s.end_line);
      }
      return;
    }
    case K::While: {
      const LabelId head = asm_.new_label("while.head");
      const LabelId end = asm_.new_label("while.end");
      bind(head, line);
      gen_cond_branch_false(*s.e, end, line);
      loop_heads_.push_back(head);
      loop_ends_.push_back(end);
      gen_stmts(s.body);
      loop_heads_.pop_back();
      loop_ends_.pop_back();
      transfer([&] { asm_.emit_branch(Cond::A, head, false, true, tag(s.end_line, -1)); },
               s.end_line);
      bind(end, s.end_line);
      return;
    }
    case K::Break:
      DSP_CHECK(!loop_ends_.empty(), "break outside a loop");
      transfer([&] { asm_.emit_branch(Cond::A, loop_ends_.back(), false, true, tag(line, -1)); },
               line);
      return;
    case K::Continue:
      DSP_CHECK(!loop_heads_.empty(), "continue outside a loop");
      transfer(
          [&] { asm_.emit_branch(Cond::A, loop_heads_.back(), false, true, tag(line, -1)); },
          line);
      return;
    case K::Return: {
      if (s.e) {
        RVal v = gen_expr(*s.e, line);
        emit(isa::mov_rr(isa::O0, v.reg), line);
        release(v);
      } else {
        emit(isa::mov_ri(isa::O0, 0), line);
      }
      transfer([&] { asm_.emit_branch(Cond::A, epilogue_, false, true, tag(line, -1)); }, line);
      return;
    }
    case K::CallStmt: {
      RVal v = gen_call(*s.e, line);
      release(v);
      return;
    }
    case K::Prefetch: {
      MemAddr a = gen_mem_addr(*s.e, line);
      emit(isa::prefetch_ri(a.base.reg, a.off), line, a.memref);
      release(a.base);
      return;
    }
    case K::Trace:
    case K::PutC:
    case K::PutI: {
      RVal v = gen_expr(*s.e, line);
      emit(isa::mov_rr(isa::O0, v.reg), line);
      release(v);
      const auto code = s.kind == K::Trace  ? machine::HostCall::Trace
                        : s.kind == K::PutC ? machine::HostCall::PutC
                                            : machine::HostCall::PutI;
      emit(isa::hcall(static_cast<i64>(code)), line);
      return;
    }
    case K::NoteAlloc: {
      RVal addr = gen_expr(*s.lhs, line);
      RVal size = gen_expr(*s.e, line);
      emit(isa::mov_rr(isa::O0, addr.reg), line);
      emit(isa::mov_rr(isa::O1, size.reg), line);
      release(addr);
      release(size);
      emit(isa::hcall(static_cast<i64>(machine::HostCall::NoteAlloc)), line);
      return;
    }
  }
  fail("unhandled statement kind");
}

}  // namespace

sym::Image compile(const Module& m, const CompileOptions& opt) {
  Codegen cg(m, opt);
  return cg.run();
}

Function* add_runtime(Module& m, u64 malloc_align) {
  DSP_CHECK(is_pow2(malloc_align) && malloc_align >= 8, "malloc alignment must be pow2 >= 8");
  m.add_global("__brk", Type::i64(), static_cast<i64>(mem::kHeapBase));
  Function* f = m.add_function("malloc", Type::i64());
  FunctionBuilder fb(m, *f);
  auto size = fb.param("size", Type::i64());
  auto p = fb.local("p", Type::i64());
  const i64 mask = -static_cast<i64>(malloc_align);
  fb.set(p, (fb.global("__brk") + static_cast<i64>(malloc_align - 1)) & mask);
  fb.set(fb.global("__brk"), p + ((size + 15) & -16));
  fb.note_alloc(p, size);
  fb.ret(p);
  return f;
}

}  // namespace dsprof::scc

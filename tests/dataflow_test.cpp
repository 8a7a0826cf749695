// Dataflow framework tests (src/sa/dataflow.hpp, src/sa/loops.hpp):
//   * per-instruction register transfer facts mirror the backtracking
//     clobber-scan written-register rule,
//   * the liveness solver instantiation on hand-assembled images, including
//     the annulled-delay-slot may-def rule,
//   * dominator tree, natural-loop detection, induction-variable stride
//     inference, and the irreducible-CFG fallback,
//   * attribution-coverage classification on hand images and compiled
//     fixtures, and the conservativeness theorem end to end: every PC the
//     machine issues is a static delivery point, and every dynamically
//     attributed candidate is classified Attributable.
#include <gtest/gtest.h>

#include "collect/collector.hpp"
#include "dsl_fixtures.hpp"
#include "machine/cpu.hpp"
#include "mcfsim/mcfsim.hpp"
#include "sa/dataflow.hpp"
#include "sa/loops.hpp"
#include "scc/compile.hpp"

namespace dsprof::sa {
namespace {

using machine::TriggerKind;

sym::Image make_image(const std::vector<isa::Instr>& code) {
  sym::Image img;
  for (const auto& ins : code) img.text_words.push_back(isa::encode(ins));
  img.entry = img.text_base;
  img.symtab.set_hwcprof(false);
  img.symtab.set_has_branch_targets(false);
  return img;
}

struct Analyses {
  Cfg cfg;
  ProgramFacts pf;
};

Analyses analyze(const sym::Image& img) {
  Analyses a{Cfg::build(img), {}};
  a.pf = ProgramFacts::build(img, a.cfg);
  return a;
}

u32 block_index_at(const Cfg& cfg, u64 pc) {
  const BasicBlock* blk = cfg.block_at(pc);
  EXPECT_NE(blk, nullptr);
  return static_cast<u32>(blk - cfg.blocks().data());
}

// ---------------------------------------------------------------------------
// Register transfer facts

TEST(RegFacts, MirrorsClobberScanWrittenRegisterRule) {
  using namespace isa;
  // Loads and ALU-type ops (SETHI included) write rd.
  EXPECT_EQ(reg_facts(load_ri(Op::LDX, O1, L1, 8)).def, O1);
  EXPECT_EQ(reg_facts(alu_rr(Op::ADD, L3, L1, L2)).def, L3);
  EXPECT_EQ(reg_facts(sethi(L4, 0x1234)).def, L4);
  // Stores, branches, prefetches, HCALL write nothing.
  EXPECT_EQ(reg_facts(store_ri(Op::STX, O1, L1, 8)).def, kNoReg);
  EXPECT_EQ(reg_facts(branch(Cond::E, 16)).def, kNoReg);
  EXPECT_EQ(reg_facts(prefetch_ri(L1, 64)).def, kNoReg);
  EXPECT_EQ(reg_facts(hcall(0)).def, kNoReg);
  // CALL writes the link register; writes to %g0 are dropped.
  EXPECT_EQ(reg_facts(call(64)).def, kLink);
  EXPECT_EQ(reg_facts(alu_ri(Op::ADD, G0, L1, 1)).def, kNoReg);

  // Uses: %g0 never appears; stores read base and data; HCALL reads %o0-%o5.
  EXPECT_EQ(reg_facts(load_ri(Op::LDX, O1, L1, 8)).uses, u32{1} << L1);
  EXPECT_EQ(reg_facts(store_ri(Op::STX, O1, L1, 8)).uses, (u32{1} << L1) | (u32{1} << O1));
  EXPECT_EQ(reg_facts(alu_rr(Op::XOR, L3, L1, L2)).uses, (u32{1} << L1) | (u32{1} << L2));
  EXPECT_EQ(reg_facts(sethi(L4, 0x1234)).uses, 0u);
  u32 hcall_uses = 0;
  for (unsigned r = O0; r <= O5; ++r) hcall_uses |= u32{1} << r;
  EXPECT_EQ(reg_facts(hcall(7)).uses, hcall_uses);
  EXPECT_EQ(reg_facts(mov_ri(L1, 5)).uses, 0u);  // or L1, %g0, 5
}

TEST(RegFacts, IdentityMovesAreRecognized) {
  using namespace isa;
  EXPECT_TRUE(is_identity_move(mov_rr(L1, L1)));            // or L1, %g0, L1
  EXPECT_TRUE(is_identity_move(alu_ri(Op::ADD, L1, L1, 0)));
  EXPECT_TRUE(is_identity_move(alu_ri(Op::OR, L1, L1, 0)));
  EXPECT_FALSE(is_identity_move(mov_rr(L1, L2)));
  EXPECT_FALSE(is_identity_move(mov_ri(L1, 0)));            // writes zero, not L1
  EXPECT_FALSE(is_identity_move(alu_ri(Op::ADD, L1, L1, 4)));
  EXPECT_FALSE(is_identity_move(load_ri(Op::LDX, L1, L1, 0)));
}

// ---------------------------------------------------------------------------
// Program facts

TEST(ProgramFacts, RpoCoversEveryBlockOnceAndAnnulSlotsAreFlagged) {
  using namespace isa;
  const sym::Image img = make_image({
      mov_ri(L1, 5),                         // w0
      branch(Cond::E, 16, /*annul=*/true),   // w1: be,a w5
      mov_ri(L1, 7),                         // w2: annulled slot
      nop(),                                 // w3
      nop(),                                 // w4
      store_ri(Op::STX, L1, L2, 0),          // w5: branch target
      hcall(0),                              // w6
      nop(),                                 // w7
  });
  const Analyses a = analyze(img);
  const ProgramFacts& pf = a.pf;

  ASSERT_EQ(pf.num_blocks(), a.cfg.blocks().size());
  ASSERT_EQ(pf.rpo.size(), pf.num_blocks());
  std::vector<bool> seen(pf.num_blocks(), false);
  for (size_t i = 0; i < pf.rpo.size(); ++i) {
    const u32 b = pf.rpo[i];
    ASSERT_LT(b, pf.num_blocks());
    EXPECT_FALSE(seen[b]) << "block appears twice in RPO";
    seen[b] = true;
    EXPECT_EQ(pf.rpo_index[b], static_cast<u32>(i));
  }

  // preds mirror succ.
  for (u32 b = 0; b < pf.num_blocks(); ++b) {
    for (const u32 s : a.cfg.blocks()[b].succ) {
      const auto& p = pf.preds[s];
      EXPECT_NE(std::find(p.begin(), p.end(), b), p.end());
    }
  }

  // Only the slot of the annulling branch is a may-def.
  EXPECT_TRUE(pf.may_annul(2));
  for (const size_t w : {size_t{0}, size_t{1}, size_t{3}, size_t{5}}) {
    EXPECT_FALSE(pf.may_annul(w)) << "word " << w;
  }
}

// ---------------------------------------------------------------------------
// Liveness

TEST(Liveness, OverwrittenWriteIsDeadExactlyOnce) {
  using namespace isa;
  const sym::Image img = make_image({
      mov_ri(L1, 5),                 // w0: dead — overwritten at w2 on every path
      mov_ri(L2, 0x100),             // w1: live — store base
      mov_ri(L1, 7),                 // w2: live — store data
      store_ri(Op::STX, L1, L2, 0),  // w3
      hcall(0),                      // w4
      nop(),                         // w5
  });
  const Analyses a = analyze(img);
  const Liveness lv = Liveness::build(a.pf);
  ASSERT_EQ(lv.dead_writes().size(), 1u);
  EXPECT_EQ(lv.dead_writes()[0].pc, img.text_base);
  EXPECT_EQ(lv.dead_writes()[0].reg, L1);
  EXPECT_GT(lv.solver_iterations(), 0u);
}

TEST(Liveness, AnnulledDelaySlotDefIsMayDefNotAKill) {
  using namespace isa;
  // On the untaken path the annulled slot never executes, so the w0 value of
  // %l1 reaches the store: w0 must NOT be reported dead even though the slot
  // textually overwrites it before the only reader.
  const sym::Image img = make_image({
      mov_ri(L1, 5),                         // w0
      branch(Cond::E, 16, /*annul=*/true),   // w1: be,a w5
      mov_ri(L1, 7),                         // w2: slot — executes only if taken
      nop(),                                 // w3: untaken path
      nop(),                                 // w4
      store_ri(Op::STX, L1, L2, 0),          // w5: reads %l1
      hcall(0),                              // w6
      nop(),                                 // w7
  });
  const Analyses a = analyze(img);
  const Liveness lv = Liveness::build(a.pf);
  EXPECT_TRUE(lv.dead_writes().empty());
}

TEST(Liveness, CallBoundaryKeepsEverythingLive) {
  using namespace isa;
  // The write at w0 is only "dead" if we assume the callee reads nothing —
  // the conservative boundary must keep it live across the call.
  const sym::Image img = make_image({
      mov_ri(L5, 9),   // w0: must stay live — callee may read anything
      call(16),        // w1: call w5
      nop(),           // w2: slot
      hcall(0),        // w3
      nop(),           // w4
      ret(),           // w5: callee
      nop(),           // w6: slot
  });
  const Analyses a = analyze(img);
  const Liveness lv = Liveness::build(a.pf);
  EXPECT_TRUE(lv.dead_writes().empty());
  const u32 entry_blk = block_index_at(a.cfg, img.text_base);
  EXPECT_NE(lv.live_out(entry_blk) & (u32{1} << L5), 0u);
}

// ---------------------------------------------------------------------------
// Dominators, loops, strides

TEST(Loops, CountedLoopWithInductionVariableStride) {
  using namespace isa;
  const sym::Image img = make_image({
      mov_ri(L1, 0),                  // w0: i = 0
      mov_ri(L2, 0x1000),             // w1: p = base
      load_ri(Op::LDX, L3, L2, 0),    // w2: loop: ldx [p], t
      alu_ri(Op::ADD, L2, L2, 24),    // w3: p += 24
      alu_ri(Op::ADD, L1, L1, 1),     // w4: i += 1
      cmp_ri(L1, 10),                 // w5
      branch(Cond::NE, -16),          // w6: bne w2
      nop(),                          // w7: slot
      hcall(0),                       // w8
      nop(),                          // w9
  });
  const Analyses a = analyze(img);
  const LoopAnalysis la = LoopAnalysis::build(a.pf, img);

  EXPECT_FALSE(la.irreducible());
  ASSERT_EQ(la.loops().size(), 1u);
  const Loop& loop = la.loops()[0];
  EXPECT_EQ(loop.head_pc, img.text_base + 4 * 2);
  EXPECT_EQ(loop.depth, 1u);
  ASSERT_EQ(loop.mem_refs.size(), 1u);
  EXPECT_EQ(loop.mem_refs[0].pc, img.text_base + 4 * 2);
  EXPECT_TRUE(loop.mem_refs[0].is_load);
  ASSERT_TRUE(loop.mem_refs[0].has_stride);
  EXPECT_EQ(loop.mem_refs[0].stride, 24);

  // Dominator facts: entry -> head -> exit is a chain.
  const u32 entry_blk = block_index_at(a.cfg, img.text_base);
  const u32 head_blk = block_index_at(a.cfg, loop.head_pc);
  const u32 exit_blk = block_index_at(a.cfg, img.text_base + 4 * 8);
  EXPECT_EQ(loop.head_block, head_blk);
  EXPECT_TRUE(la.dom().dominates(entry_blk, head_blk));
  EXPECT_TRUE(la.dom().dominates(head_blk, exit_blk));
  EXPECT_FALSE(la.dom().dominates(exit_blk, head_blk));
  EXPECT_EQ(la.dom().idom(head_blk), entry_blk);
}

TEST(Loops, PointerChaseLoopHonestlyReportsNoStride) {
  using namespace isa;
  const sym::Image img = make_image({
      mov_ri(L2, 0),                 // w0: cur = head
      load_ri(Op::LDX, L2, L2, 8),   // w1: loop: cur = cur->next
      cmp_ri(L2, 0),                 // w2
      branch(Cond::NE, -8),          // w3: bne w1
      nop(),                         // w4: slot
      hcall(0),                      // w5
      nop(),                         // w6
  });
  const Analyses a = analyze(img);
  const LoopAnalysis la = LoopAnalysis::build(a.pf, img);
  ASSERT_EQ(la.loops().size(), 1u);
  ASSERT_EQ(la.loops()[0].mem_refs.size(), 1u);
  EXPECT_FALSE(la.loops()[0].mem_refs[0].has_stride)
      << "a base register loaded from memory has no static stride";
}

TEST(Loops, IrreducibleRegionIsSkippedAndReported) {
  using namespace isa;
  // entry branches into a two-block cycle at both points: neither cycle
  // block dominates the other, so no retreating edge is a back edge.
  const sym::Image img = make_image({
      branch(Cond::E, 24),    // w0: be B (w6); fall through to A
      nop(),                  // w1: slot
      nop(),                  // w2: A
      branch(Cond::A, 12),    // w3: ba B (w6)
      nop(),                  // w4: slot
      nop(),                  // w5: (unreachable)
      branch(Cond::NE, -16),  // w6: B: bne A (w2)
      nop(),                  // w7: slot
      hcall(0),               // w8
      nop(),                  // w9
  });
  const Analyses a = analyze(img);
  const LoopAnalysis la = LoopAnalysis::build(a.pf, img);
  EXPECT_TRUE(la.irreducible());
  EXPECT_TRUE(la.loops().empty());
}

TEST(Loops, AffineResolverFollowsMovAddShiftChains) {
  using namespace isa;
  // w3 sees  %l3 = (%l1 << 3) + 16  anchored at block entry.
  const sym::Image img = make_image({
      alu_ri(Op::SLL, L3, L1, 3),    // w0: t = i << 3
      alu_ri(Op::ADD, L3, L3, 16),   // w1: t += 16
      mov_rr(L4, L3),                // w2: u = t
      store_ri(Op::STX, L4, L4, 0),  // w3
      hcall(0),                      // w4
      nop(),                         // w5
  });
  const Analyses a = analyze(img);
  const auto v = LoopAnalysis::resolve_affine(a.pf, L4, 3);
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->terms.size(), 1u);
  EXPECT_EQ(v->terms[0].reg, L1);
  EXPECT_EQ(v->terms[0].mult, 8);
  EXPECT_EQ(v->offset, 16);

  // A load in the chain gives up.
  const sym::Image opaque = make_image({
      load_ri(Op::LDX, L3, L1, 0),  // w0
      alu_ri(Op::ADD, L3, L3, 16),  // w1
      hcall(0),                     // w2
      nop(),                        // w3
  });
  const Analyses b = analyze(opaque);
  EXPECT_FALSE(LoopAnalysis::resolve_affine(b.pf, L3, 2).has_value());
}

TEST(Loops, CompiledChaseImageHasStridedSweepAndUnstridedChase) {
  const auto m = testfix::make_chase_module(500, 2, 512);
  const sym::Image img = scc::compile(*m);
  const Analyses a = analyze(img);
  const LoopAnalysis la = LoopAnalysis::build(a.pf, img);
  EXPECT_FALSE(la.irreducible());
  ASSERT_GT(la.loops().size(), 2u);  // walk, sweep, init x2, main iter loop
  size_t strided = 0, unstrided = 0;
  for (const Loop& l : la.loops()) {
    EXPECT_FALSE(l.function.empty());
    for (const LoopMemRef& r : l.mem_refs) (r.has_stride ? strided : unstrided) += 1;
  }
  EXPECT_GT(strided, 0u) << "the array sweep has a constant stride";
  EXPECT_GT(unstrided, 0u) << "the pointer chase must not fake a stride";
}

// ---------------------------------------------------------------------------
// Attribution coverage

TEST(Coverage, ClassifiesPlainAndSelfClobberingLoads) {
  using namespace isa;
  const sym::Image img = make_image({
      load_ri(Op::LDX, O1, L1, 8),  // w0: EA regs intact at every delivery
      nop(),                        // w1
      load_ri(Op::LDX, L2, L2, 8),  // w2: destroys its own base
      nop(),                        // w3
      hcall(0),                     // w4
      nop(),                        // w5
  });
  const Cfg cfg = Cfg::build(img);
  const BacktrackTable table = BacktrackTable::build(img, 16);
  const AttributionCoverage cov = AttributionCoverage::build(img, cfg, table);

  const MemOpFact* plain = cov.find(img.text_base);
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(plain->reachable);
  EXPECT_EQ(plain->cls, EaClass::Attributable);
  EXPECT_GT(plain->ea_static_deliveries, 0u);

  const MemOpFact* clobbered = cov.find(img.text_base + 4 * 2);
  ASSERT_NE(clobbered, nullptr);
  EXPECT_TRUE(clobbered->reachable);
  EXPECT_EQ(clobbered->cls, EaClass::Clobbered);
  EXPECT_GT(clobbered->resolving_deliveries, 0u);
  EXPECT_EQ(clobbered->ea_static_deliveries, 0u);

  EXPECT_EQ(cov.reachable_mem_ops(), 2u);
  EXPECT_EQ(cov.attributable(), 1u);
  EXPECT_DOUBLE_EQ(cov.fraction(), 0.5);
  EXPECT_EQ(cov.find(img.text_base + 4), nullptr);  // nop is not a mem op

  // Every issued PC is a delivery point on this straight-line image (the
  // halt flush lands on the word after the exit hcall, never past the end);
  // off-text PCs are not.
  for (size_t w = 0; w < img.text_words.size(); ++w) {
    EXPECT_TRUE(cov.is_delivery_point(img.text_base + 4 * w)) << "word " << w;
  }
  EXPECT_FALSE(cov.is_delivery_point(img.text_base - 4));
  EXPECT_FALSE(cov.is_delivery_point(img.text_base + 2));
}

TEST(Coverage, UnreachableMemOpsAreExcludedFromTheFraction) {
  using namespace isa;
  const sym::Image img = make_image({
      branch(Cond::A, 16, /*annul=*/true),  // w0: ba,a w4 — w1..w3 dead
      nop(),                                // w1: annulled slot
      load_ri(Op::LDX, O1, L1, 8),          // w2: unreachable load
      nop(),                                // w3
      hcall(0),                             // w4
      nop(),                                // w5
  });
  const Cfg cfg = Cfg::build(img);
  const BacktrackTable table = BacktrackTable::build(img, 16);
  const AttributionCoverage cov = AttributionCoverage::build(img, cfg, table);

  const MemOpFact* dead = cov.find(img.text_base + 4 * 2);
  ASSERT_NE(dead, nullptr);
  EXPECT_FALSE(dead->reachable);
  EXPECT_EQ(cov.reachable_mem_ops(), 0u);
  EXPECT_EQ(cov.attributable(), 0u);
  EXPECT_DOUBLE_EQ(cov.fraction(), 1.0);  // nothing reachable to attribute
}

TEST(Coverage, ClobberDepthMeasuresSkidHeadroom) {
  using namespace isa;
  const sym::Image img = make_image({
      load_ri(Op::LDX, O1, L1, 8),  // w0: EA base %l1 ...
      mov_ri(L1, 0),                // w1: ... clobbered at distance 1
      load_ri(Op::LDX, O2, L2, 8),  // w2: %l2 never rewritten
      nop(),                        // w3
      hcall(0),                     // w4
      nop(),                        // w5
  });
  const Cfg cfg = Cfg::build(img);
  const BacktrackTable table = BacktrackTable::build(img, 16);
  const AttributionCoverage cov = AttributionCoverage::build(img, cfg, table);
  const MemOpFact* tight = cov.find(img.text_base);
  ASSERT_NE(tight, nullptr);
  EXPECT_EQ(tight->cls, EaClass::Attributable);  // the w1 delivery still resolves
  EXPECT_EQ(tight->clobber_depth, 1u);
  const MemOpFact* roomy = cov.find(img.text_base + 4 * 2);
  ASSERT_NE(roomy, nullptr);
  EXPECT_EQ(roomy->clobber_depth, 0u);
}

TEST(Coverage, CompiledImagesClearTheNinetyPercentFloor) {
  for (const sym::Image& img :
       {scc::compile(*testfix::make_chase_module(500, 2, 512)), mcfsim::build_mcf_image()}) {
    const Cfg cfg = Cfg::build(img);
    const BacktrackTable table = BacktrackTable::build(img, 16);
    const AttributionCoverage cov = AttributionCoverage::build(img, cfg, table);
    EXPECT_GE(cov.fraction(), 0.90);
    EXPECT_GT(cov.reachable_mem_ops(), 0u);

    // Per-function rows are consistent with the whole-image totals.
    size_t reach = 0, attr = 0;
    for (const FunctionCoverage& f : cov.by_function(img)) {
      EXPECT_LE(f.attributable, f.reachable_mem_ops);
      EXPECT_LE(f.reachable_mem_ops, f.mem_ops);
      EXPECT_GE(f.fraction, 0.0);
      EXPECT_LE(f.fraction, 1.0);
      reach += f.reachable_mem_ops;
      attr += f.attributable;
    }
    EXPECT_EQ(reach, cov.reachable_mem_ops());
    EXPECT_EQ(attr, cov.attributable());
  }
}

// ---------------------------------------------------------------------------
// Conservativeness: the static delivery set and classification must cover
// everything the dynamic pipeline can produce.

TEST(Conservativeness, EveryIssuedPcIsAStaticDeliveryPoint) {
  const sym::Image img = scc::compile(*testfix::make_chase_module(200, 1, 256));
  const Cfg cfg = Cfg::build(img);
  const BacktrackTable table = BacktrackTable::build(img, 16);
  const AttributionCoverage cov = AttributionCoverage::build(img, cfg, table);

  mem::Memory memory;
  img.load_into(memory);
  machine::Cpu cpu(memory, machine::CpuConfig{});
  cpu.set_truth_log_enabled(false);
  cpu.set_pc(img.entry);
  // Single-step and check the PC the machine is about to issue — the value a
  // counter delivery would report — before every instruction.
  for (size_t steps = 0; steps < 2'000'000; ++steps) {
    ASSERT_TRUE(cov.is_delivery_point(cpu.pc()))
        << "issued pc " << std::hex << cpu.pc() << " not in the delivery set";
    if (cpu.run(1).halted) break;
  }
  EXPECT_TRUE(cov.is_delivery_point(cpu.pc())) << "halt flush point";
}

TEST(Conservativeness, DynamicallyAttributedCandidatesAreClassifiedAttributable) {
  const sym::Image img = scc::compile(*testfix::make_chase_module(2000, 3, 4096));
  const Cfg cfg = Cfg::build(img);
  const BacktrackTable table = BacktrackTable::build(img, 16);
  const AttributionCoverage cov = AttributionCoverage::build(img, cfg, table);

  machine::CpuConfig small;
  small.hierarchy.dcache = {4 * 1024, 4, 32, false};
  small.hierarchy.ecache = {32 * 1024, 2, 512, true};
  small.hierarchy.dtlb = {4, 2, 8 * 1024};
  size_t attributed = 0;
  for (const char* spec : {"+dcrm,97", "+ecref,193", "+dtlbm,13"}) {
    const auto x = testfix::quick_collect(img, spec, "off", small);
    ASSERT_GT(x.events.size(), 0u) << spec;
    for (size_t i = 0; i < x.events.size(); ++i) {
      const experiment::EventView e = x.events[i];
      EXPECT_TRUE(cov.is_delivery_point(e.delivered_pc))
          << spec << " delivered " << std::hex << e.delivered_pc;
      if (!e.has_candidate) continue;
      const MemOpFact* op = cov.find(e.candidate_pc);
      ASSERT_NE(op, nullptr) << spec << " candidate " << std::hex << e.candidate_pc;
      EXPECT_NE(op->cls, EaClass::Unknown)
          << spec << " candidate " << std::hex << e.candidate_pc;
      if (e.has_ea) {
        ++attributed;
        EXPECT_EQ(op->cls, EaClass::Attributable)
            << spec << " candidate " << std::hex << e.candidate_pc;
      }
    }
  }
  EXPECT_GT(attributed, 0u) << "the property must not hold vacuously";
}

TEST(Coverage, EaClassNames) {
  EXPECT_STREQ(ea_class_name(EaClass::Attributable), "attributable");
  EXPECT_STREQ(ea_class_name(EaClass::Clobbered), "clobbered");
  EXPECT_STREQ(ea_class_name(EaClass::Unknown), "unknown");
}

}  // namespace
}  // namespace dsprof::sa

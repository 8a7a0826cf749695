// Static-analysis subsystem tests (src/sa):
//   * CFG reconstruction facts on compiled images,
//   * BacktrackTable vs backtrack_dynamic bit-identity — exhaustive PC
//     sweeps and the conservative annulled-delay-slot rule on a
//     hand-assembled image (the collector itself only queries the table;
//     SimulatorGolden in collect_test pins the events it writes),
//   * hwcprof invariant lint: default-compiled output is lint-clean, each
//     scc codegen mutation hook fires exactly its corresponding rule,
//   * verifier report rendering (text + JSON).
#include <gtest/gtest.h>

#include "collect/collector.hpp"
#include "dsl_fixtures.hpp"
#include "mcfsim/experiments.hpp"
#include "sa/verifier.hpp"
#include "scc/compile.hpp"
#include "support/rng.hpp"

namespace dsprof::sa {
namespace {

using machine::TriggerKind;

// ---------------------------------------------------------------------------
// Helpers

sym::Image chase_image(const scc::CompileOptions& opt = {}) {
  // 2000 nodes x 24 B + 32 KB array: comfortably larger than the scaled-down
  // caches below, so every counter kind actually fires during collection.
  const auto m = testfix::make_chase_module(2000, 3, 4096);
  return scc::compile(*m, opt);
}

/// A module shaped so each codegen mutation hook has something to break:
/// a store directly before a loop-head join (nop-pad rule) and a store as
/// the last statement of a loop body (delay-slot filler candidate).
std::unique_ptr<scc::Module> make_mutation_module() {
  using namespace scc;
  auto m = std::make_unique<Module>();
  Function* mal = add_runtime(*m);
  Function* main = m->add_function("main");
  FunctionBuilder fb(*m, *main);
  auto arr = fb.local("arr", Type::ptr_i64());
  auto i = fb.local("i", Type::i64());
  fb.set(arr, cast(fb.call(mal, {Val(i64{64 * 8})}), Type::ptr_i64()));
  fb.set(i, 0);
  fb.set(arr.idx(i), 5);  // store immediately before the while-head join
  fb.while_(i < 10, [&] {
    fb.set(i, i + 1);
    fb.set(arr.idx(i), i);  // store ends the body: delay-slot candidate
  });
  fb.ret(arr.idx(0) & 0x7F);
  return m;
}

std::vector<Diag> lint_image(const sym::Image& img) {
  const Cfg cfg = Cfg::build(img);
  return lint(img, cfg);
}

/// Error-severity rule ids present in `diags` (deduplicated).
std::vector<std::string> error_rules(const std::vector<Diag>& diags) {
  std::vector<std::string> rules;
  for (const auto& d : diags) {
    if (d.severity != Severity::Error) continue;
    if (std::find(rules.begin(), rules.end(), d.rule) == rules.end()) rules.push_back(d.rule);
  }
  return rules;
}

/// Diagnostics carrying rule id `r`, any severity (the dataflow-backed rules
/// report at Warning/Info, which error_rules filters out).
size_t count_rule(const std::vector<Diag>& diags, const char* r) {
  size_t n = 0;
  for (const auto& d : diags) n += d.rule == r ? 1 : 0;
  return n;
}

void expect_engines_agree(const sym::Image& img, u32 window, u64 seed,
                          const char* label) {
  const BacktrackTable table = BacktrackTable::build(img, window);
  std::array<u64, 32> regs{};
  Xoshiro256 rng(seed);
  // Every deliverable PC (including one-past-the-end), all trigger kinds,
  // a fresh register file per word.
  for (size_t w = 0; w <= img.text_words.size(); ++w) {
    for (size_t r = 1; r < 32; ++r) regs[r] = rng.next();
    const u64 pc = img.text_base + 4 * w;
    for (const auto kind : {TriggerKind::Any, TriggerKind::Load, TriggerKind::LoadStore}) {
      const BacktrackAnswer d = collect::backtrack_dynamic(img, pc, kind, regs, window);
      const BacktrackAnswer t = table.query(pc, kind, regs);
      ASSERT_EQ(d.found, t.found) << label << " pc=" << std::hex << pc;
      ASSERT_EQ(d.candidate_pc, t.candidate_pc) << label << " pc=" << std::hex << pc;
      ASSERT_EQ(d.ea_known, t.ea_known) << label << " pc=" << std::hex << pc;
      ASSERT_EQ(d.ea, t.ea) << label << " pc=" << std::hex << pc;
    }
  }
  // Off-text and misaligned delivered PCs: both engines find nothing.
  for (const u64 pc : {img.text_base - 4, img.text_base + 2,
                       img.text_base + img.text_size() + 4, u64{0}, ~u64{0}}) {
    const BacktrackAnswer d =
        collect::backtrack_dynamic(img, pc, TriggerKind::Load, regs, window);
    const BacktrackAnswer t = table.query(pc, TriggerKind::Load, regs);
    EXPECT_EQ(d.found, t.found) << label;
    EXPECT_FALSE(t.found) << label;
    EXPECT_FALSE(t.ea_known) << label;
  }
}

// ---------------------------------------------------------------------------
// CFG reconstruction

TEST(Cfg, ChaseImageStructure) {
  const sym::Image img = chase_image();
  const Cfg cfg = Cfg::build(img);
  EXPECT_EQ(cfg.text_base(), img.text_base);
  EXPECT_EQ(cfg.num_words(), img.text_words.size());
  ASSERT_GT(cfg.blocks().size(), 4u);
  EXPECT_GT(cfg.num_edges(), 0u);
  EXPECT_GT(cfg.reachable_blocks(), 0u);
  EXPECT_LE(cfg.reachable_blocks(), cfg.blocks().size());

  // The entry instruction is reachable and inside a reachable block.
  EXPECT_TRUE(cfg.instr_reachable(img.entry));
  const BasicBlock* entry_blk = cfg.block_at(img.entry);
  ASSERT_NE(entry_blk, nullptr);
  EXPECT_TRUE(entry_blk->reachable);

  // Outside the text segment there is no block.
  EXPECT_EQ(cfg.block_at(img.text_base - 4), nullptr);
  EXPECT_EQ(cfg.block_at(img.text_base + img.text_size()), nullptr);

  // Delay-slot facts match a direct decode of the text.
  size_t slots = 0;
  for (size_t w = 0; w + 1 < img.text_words.size(); ++w) {
    const isa::Instr ins = isa::decode(img.text_words[w]);
    if (isa::op_info(ins.op).delayed) {
      EXPECT_TRUE(cfg.is_delay_slot(img.text_base + 4 * (w + 1)))
          << "word " << w + 1 << " follows a delayed transfer";
      ++slots;
    }
  }
  EXPECT_GT(slots, 0u);
  EXPECT_FALSE(cfg.is_delay_slot(img.entry));

  // Blocks tile the text: every word belongs to exactly one block.
  size_t covered = 0;
  for (const auto& blk : cfg.blocks()) {
    EXPECT_LT(blk.lo, blk.hi);
    covered += (blk.hi - blk.lo) / 4;
    for (u64 pc = blk.lo; pc < blk.hi; pc += 4) EXPECT_EQ(cfg.block_at(pc), &blk);
  }
  EXPECT_EQ(covered, img.text_words.size());
}

TEST(Cfg, SuccessorEdgesPointAtBlockStarts) {
  const sym::Image img = chase_image();
  const Cfg cfg = Cfg::build(img);
  for (const auto& blk : cfg.blocks()) {
    for (u32 s : blk.succ) {
      ASSERT_LT(s, cfg.blocks().size());
      // A reachable block only reaches other reachable blocks.
      if (blk.reachable) EXPECT_TRUE(cfg.blocks()[s].reachable);
    }
  }
}

// ---------------------------------------------------------------------------
// BacktrackTable bit-identity with the dynamic reference

TEST(BacktrackTable, MatchesDynamicExhaustivelyOnChaseImage) {
  expect_engines_agree(chase_image(), 16, 0xc0ffee, "chase");
}

TEST(BacktrackTable, MatchesDynamicExhaustivelyOnMcfImage) {
  expect_engines_agree(mcfsim::build_mcf_image(), 16, 0xfeed, "mcf");
}

TEST(BacktrackTable, MatchesDynamicAcrossWindowSizes) {
  const sym::Image img = chase_image();
  for (const u32 window : {1u, 2u, 4u, 8u, 32u}) {
    expect_engines_agree(img, window, 0xabad1dea + window, "chase/window");
  }
}

TEST(BacktrackTable, CoverageCountsMatchSweep) {
  const sym::Image img = chase_image();
  const BacktrackTable table = BacktrackTable::build(img, 16);
  const std::array<u64, 32> regs{};
  for (const auto kind : {TriggerKind::Load, TriggerKind::LoadStore}) {
    size_t found = 0, ea = 0;
    for (size_t w = 0; w <= img.text_words.size(); ++w) {
      const BacktrackAnswer a = table.query(img.text_base + 4 * w, kind, regs);
      found += a.found ? 1 : 0;
      ea += a.ea_known ? 1 : 0;
    }
    EXPECT_EQ(table.count_found(kind), found);
    EXPECT_EQ(table.count_ea_static(kind), ea);
  }
  EXPECT_EQ(table.count_found(TriggerKind::Any), 0u);
  EXPECT_EQ(table.window(), 16u);
  EXPECT_EQ(table.num_entries(), 2 * (img.text_words.size() + 1));
}

// The conservative annulled-delay-slot rule (collect/collector.hpp): an
// instruction sitting in the delay slot of an annulling branch is treated as
// an executed register writer even though the machine may have annulled it.
// Hand-assembled so the slot provably writes the load's base register.
TEST(BacktrackTable, AnnulledDelaySlotClobberIsConservative) {
  using namespace isa;
  auto build = [](Instr slot_instr) {
    sym::Image img;
    img.text_words = {
        encode(load_ri(Op::LDX, O0, L1, 8)),          // w0: candidate (EA = %l1 + 8)
        encode(branch(Cond::E, 12, /*annul=*/true)),  // w1: be,a — slot annulled if untaken
        encode(slot_instr),                           // w2: the (possibly annulled) slot
        encode(nop()),                                // w3: delivered PC for the queries
        encode(hcall(0)),                             // w4: exit
        encode(nop()),
    };
    img.entry = img.text_base;
    return img;
  };

  std::array<u64, 32> regs{};
  regs[L1] = 0x5000;
  const u64 delivered = mem::kTextBase + 12;  // word 3

  // Slot writes the base register %l1: the clobber scan must drop the EA
  // even though the write may have been annulled at run time — a lost
  // sample, never a wrong address.
  {
    const sym::Image img = build(mov_ri(L1, 5));
    const BacktrackTable table = BacktrackTable::build(img, 16);
    const BacktrackAnswer d =
        collect::backtrack_dynamic(img, delivered, TriggerKind::Load, regs, 16);
    const BacktrackAnswer t = table.query(delivered, TriggerKind::Load, regs);
    EXPECT_TRUE(d.found);
    EXPECT_EQ(d.candidate_pc, img.text_base);
    EXPECT_FALSE(d.ea_known) << "annulled-slot write must be treated as a clobber";
    EXPECT_EQ(d.found, t.found);
    EXPECT_EQ(d.candidate_pc, t.candidate_pc);
    EXPECT_EQ(d.ea_known, t.ea_known);
    EXPECT_EQ(d.ea, t.ea);
  }

  // Control: the slot writes an unrelated register — the EA survives and is
  // recomputed from the delivered snapshot identically by both engines.
  {
    const sym::Image img = build(mov_ri(L2, 5));
    const BacktrackTable table = BacktrackTable::build(img, 16);
    const BacktrackAnswer d =
        collect::backtrack_dynamic(img, delivered, TriggerKind::Load, regs, 16);
    const BacktrackAnswer t = table.query(delivered, TriggerKind::Load, regs);
    EXPECT_TRUE(d.found);
    EXPECT_TRUE(d.ea_known);
    EXPECT_EQ(d.ea, 0x5008u);
    EXPECT_EQ(d.found, t.found);
    EXPECT_EQ(d.candidate_pc, t.candidate_pc);
    EXPECT_EQ(d.ea_known, t.ea_known);
    EXPECT_EQ(d.ea, t.ea);
  }
}

// ---------------------------------------------------------------------------
// Lint: default output is clean; each mutation fires exactly its rule

TEST(Lint, DefaultCompiledImagesAreLintClean) {
  for (const sym::Image& img :
       {chase_image(), scc::compile(*make_mutation_module()), mcfsim::build_mcf_image()}) {
    const auto diags = lint_image(img);
    EXPECT_EQ(count_severity(diags, Severity::Error), 0u);
  }
}

TEST(Lint, MutationHooksDefaultOffAndChangeNothing) {
  const auto m = make_mutation_module();
  const sym::Image a = scc::compile(*m);
  scc::CompileOptions explicit_off;
  explicit_off.mutate_skip_nop_pad = false;
  explicit_off.mutate_mem_in_delay_slot = false;
  explicit_off.mutate_skip_memref = false;
  explicit_off.mutate_self_clobber_load = false;
  explicit_off.mutate_dead_register_write = false;
  explicit_off.mutate_clobber_ea_early = false;
  const sym::Image b = scc::compile(*m, explicit_off);
  EXPECT_EQ(a.text_words, b.text_words);
}

TEST(Lint, SkipNopPadMutationFiresExactlyMissingNopPad) {
  scc::CompileOptions opt;
  opt.mutate_skip_nop_pad = true;
  const auto diags = lint_image(scc::compile(*make_mutation_module(), opt));
  const auto rules = error_rules(diags);
  ASSERT_EQ(rules.size(), 1u) << "exactly one rule must fire";
  EXPECT_EQ(rules[0], rule::kMissingNopPad);
}

TEST(Lint, MemInDelaySlotMutationFiresExactlyThatRule) {
  scc::CompileOptions opt;
  opt.mutate_mem_in_delay_slot = true;
  const auto diags = lint_image(scc::compile(*make_mutation_module(), opt));
  const auto rules = error_rules(diags);
  ASSERT_EQ(rules.size(), 1u) << "exactly one rule must fire";
  EXPECT_EQ(rules[0], rule::kMemOpInDelaySlot);
}

TEST(Lint, SkipMemrefMutationFiresExactlyMissingDescriptor) {
  scc::CompileOptions opt;
  opt.mutate_skip_memref = true;
  const auto diags = lint_image(scc::compile(*make_mutation_module(), opt));
  const auto rules = error_rules(diags);
  ASSERT_EQ(rules.size(), 1u) << "exactly one rule must fire";
  EXPECT_EQ(rules[0], rule::kMissingDescriptor);
}

TEST(Lint, SelfClobberMutationFiresUnprofilableLoad) {
  // The mutation loads into the address register itself: no delivery after
  // the load can statically recover its EA, so the coverage classifier must
  // demote it from Attributable and the unprofilable-load rule must fire.
  const auto clean = lint_image(scc::compile(*make_mutation_module()));
  EXPECT_EQ(count_rule(clean, rule::kUnprofilableLoad), 0u);

  scc::CompileOptions opt;
  opt.mutate_self_clobber_load = true;
  const auto diags = lint_image(scc::compile(*make_mutation_module(), opt));
  EXPECT_GT(count_rule(diags, rule::kUnprofilableLoad), 0u);
  EXPECT_EQ(count_severity(diags, Severity::Error), 0u);
}

TEST(Lint, DeadRegisterWriteMutationFiresThatRule) {
  // The mutation writes a constant into the call-result temp one instruction
  // before the real %o0 move overwrites it — dead on every path.
  const auto clean = lint_image(scc::compile(*make_mutation_module()));
  EXPECT_EQ(count_rule(clean, rule::kDeadRegisterWrite), 0u);

  scc::CompileOptions opt;
  opt.mutate_dead_register_write = true;
  const auto diags = lint_image(scc::compile(*make_mutation_module(), opt));
  EXPECT_GT(count_rule(diags, rule::kDeadRegisterWrite), 0u);
  EXPECT_EQ(count_severity(diags, Severity::Error), 0u);
}

TEST(Lint, ClobberEaEarlyMutationFiresClobberDepthInfo) {
  // The identity %sp move after each stack-slot load preserves semantics (so
  // the load stays Attributable via the delivery right after it) but is a
  // clobber-scan writer of the load's EA register at distance 1 — the
  // minimum-headroom rule must flag it at Info. Needs a frame-homed local:
  // the first 14 locals live in registers and are never loaded, and
  // temp-based Deref loads already sit at depth 1 from register recycling,
  // so only %sp-relative loads make the mutation observable.
  auto make_spill_module = [] {
    using namespace scc;
    auto m = std::make_unique<Module>();
    Function* main = m->add_function("main");
    FunctionBuilder fb(*m, *main);
    for (int k = 0; k < 14; ++k) fb.local("pad" + std::to_string(k), Type::i64());
    auto s = fb.local("spilled", Type::i64());
    fb.set(s, 3);
    fb.ret(s & 0x7F);  // reading `s` is a stack load off %sp
    return m;
  };
  const auto clean = lint_image(scc::compile(*make_spill_module()));
  const size_t baseline = count_rule(clean, rule::kEaClobberDepth);

  scc::CompileOptions opt;
  opt.mutate_clobber_ea_early = true;
  const auto diags = lint_image(scc::compile(*make_spill_module(), opt));
  EXPECT_GT(count_rule(diags, rule::kEaClobberDepth), baseline);
  EXPECT_EQ(count_severity(diags, Severity::Error), 0u);
  // The identity move must not read as a dead write or demote coverage.
  EXPECT_EQ(count_rule(diags, rule::kDeadRegisterWrite), 0u);
  EXPECT_EQ(count_rule(diags, rule::kUnprofilableLoad),
            count_rule(clean, rule::kUnprofilableLoad));
}

TEST(Lint, NonHwcprofImagesAreNotHeldToTheContract) {
  // Without -xhwcprof the compiler never promised the contract: delay slots
  // may legally hold memory ops and no descriptors exist. The contract rules
  // must gate off (the paper's "(Unascertainable)" case, not an error).
  scc::CompileOptions opt;
  opt.hwcprof = false;
  const auto diags = lint_image(scc::compile(*make_mutation_module(), opt));
  EXPECT_EQ(count_severity(diags, Severity::Error), 0u);
}

TEST(Lint, NoDwarfGatesJoinTableRules) {
  scc::CompileOptions opt;
  opt.dwarf = false;
  const auto diags = lint_image(scc::compile(*make_mutation_module(), opt));
  EXPECT_EQ(count_severity(diags, Severity::Error), 0u);
}

TEST(Lint, SelfClobberingLoadIsWarnedStatically) {
  using namespace isa;
  sym::Image img;
  img.text_words = {
      encode(load_ri(Op::LDX, L1, L1, 8)),  // ldx [%l1 + 8], %l1 — base clobber
      encode(hcall(0)),
      encode(nop()),
  };
  img.entry = img.text_base;
  img.symtab.set_hwcprof(false);  // keep the contract rules out of the way
  img.symtab.set_has_branch_targets(false);
  const auto diags = lint_image(img);
  bool saw = false;
  for (const auto& d : diags) {
    if (d.rule == rule::kUnprofilableLoad) {
      saw = true;
      EXPECT_EQ(d.pc, img.text_base);
      EXPECT_EQ(d.severity, Severity::Warning);
    }
  }
  EXPECT_TRUE(saw);
}

// ---------------------------------------------------------------------------
// Verifier report

TEST(Verifier, ReportFactsAndRenderings) {
  const sym::Image img = chase_image();
  const VerifyReport r = verify(img, "chase");
  EXPECT_EQ(r.name, "chase");
  EXPECT_EQ(r.text_words, img.text_words.size());
  EXPECT_TRUE(r.hwcprof);
  EXPECT_TRUE(r.has_branch_targets);
  EXPECT_GT(r.num_blocks, 0u);
  EXPECT_GT(r.load_found, 0u);
  EXPECT_GT(r.loadstore_found, r.load_found - 1);  // loadstore is a superset
  EXPECT_EQ(r.errors(), 0u);
  EXPECT_TRUE(r.clean());

  const std::string text = to_text(r);
  EXPECT_NE(text.find("chase"), std::string::npos);
  EXPECT_NE(text.find("verdict: OK"), std::string::npos);

  const std::string json = to_json(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"chase\""), std::string::npos);
  EXPECT_NE(json.find("\"clean\":true"), std::string::npos);
}

TEST(Verifier, MutatedImageFailsTheVerdict) {
  scc::CompileOptions opt;
  opt.mutate_mem_in_delay_slot = true;
  const VerifyReport r = verify(scc::compile(*make_mutation_module(), opt), "mutant");
  EXPECT_GT(r.errors(), 0u);
  EXPECT_FALSE(r.clean());
  EXPECT_NE(to_text(r).find("verdict: FAIL"), std::string::npos);
  EXPECT_NE(to_json(r).find("\"clean\":false"), std::string::npos);
}

}  // namespace
}  // namespace dsprof::sa

// Cross-module property tests: invariants that tie the substrate together.
#include <gtest/gtest.h>

#include <random>

#include "analyze/analysis.hpp"
#include "analyze/reduction.hpp"
#include "analyze/reports.hpp"
#include "dsl_fixtures.hpp"
#include "mcfsim/mcfsim.hpp"
#include "reduce_oracle.hpp"
#include "support/bytestream.hpp"
#include "temp_dir.hpp"

namespace dsprof {
namespace {

using machine::HwEvent;

TEST(Determinism, CompilationIsBitStable) {
  const sym::Image a = mcfsim::build_mcf_image();
  const sym::Image b = mcfsim::build_mcf_image();
  EXPECT_EQ(a.text_words, b.text_words);
  EXPECT_EQ(a.entry, b.entry);
  EXPECT_EQ(a.data_init, b.data_init);
  ByteWriter wa, wb;
  a.symtab.serialize(wa);
  b.symtab.serialize(wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(Determinism, ExperimentSaveLoadSaveIsByteStable) {
  auto mod = testfix::make_chase_module(500, 3, 1024);
  const sym::Image img = scc::compile(*mod);
  auto ex = testfix::quick_collect(img, "+dcrm,97", "hi");
  const testfix::ScopedTempDir tmp;
  const std::string d1 = tmp.path("exp1");
  const std::string d2 = tmp.path("exp2");
  ex.save(d1);
  experiment::Experiment::load(d1).save(d2);
  EXPECT_EQ(read_file(d1 + "/events.bin"), read_file(d2 + "/events.bin"));
  EXPECT_EQ(read_file(d1 + "/loadobjects.bin"), read_file(d2 + "/loadobjects.bin"));
}

TEST(ImageInvariants, FunctionsTileTextAndTargetsAreInside) {
  const sym::Image img = mcfsim::build_mcf_image();
  const sym::SymbolTable& st = img.symtab;
  // Functions are disjoint, sorted, and inside the text segment.
  u64 prev_hi = 0;
  for (const auto& f : st.functions()) {
    EXPECT_GE(f.lo, prev_hi) << f.name << " overlaps its predecessor";
    EXPECT_GE(f.lo, img.text_base);
    EXPECT_LE(f.hi, img.text_base + img.text_size());
    prev_hi = f.hi;
  }
  for (u64 t : st.branch_targets()) {
    EXPECT_GE(t, img.text_base);
    EXPECT_LE(t, img.text_base + img.text_size());
    EXPECT_EQ(t % 4, 0u);
  }
  // Every memref PC decodes to a memory-reference instruction.
  size_t memrefs = 0;
  for (size_t i = 0; i < img.text_words.size(); ++i) {
    const u64 pc = img.text_base + 4 * i;
    if (st.memref_for(pc) != nullptr) {
      ++memrefs;
      const isa::Instr ins = isa::decode(img.text_words[i]);
      EXPECT_TRUE(isa::is_mem_op(ins.op) || isa::op_info(ins.op).is_prefetch)
          << "memref on non-memory instruction at " << std::hex << pc;
    }
  }
  EXPECT_GT(memrefs, 100u);
}

class SamplingAccuracy : public ::testing::TestWithParam<u64> {};

TEST_P(SamplingAccuracy, SampledTotalsTrackTrueCounts) {
  auto mod = testfix::make_chase_module(2500, 6, 8192);
  const sym::Image img = scc::compile(*mod);
  collect::CollectOptions opt;
  opt.hw = "+dcrm," + std::to_string(GetParam());
  collect::Collector c(img, opt);
  auto ex = c.run();
  const u64 true_total = c.cpu().event_total(HwEvent::DC_rd_miss);
  double est = 0;
  for (const auto& e : ex.events) {
    if (e.pic != machine::kClockPic) est += static_cast<double>(e.weight);
  }
  ASSERT_GT(true_total, 20 * GetParam());  // enough samples for the bound
  EXPECT_NEAR(est / static_cast<double>(true_total), 1.0, 0.05)
      << "interval " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Intervals, SamplingAccuracy, ::testing::Values(31, 97, 211, 499));

TEST(AnalysisAdditivity, MergingExperimentsSumsMetrics) {
  auto mod = testfix::make_chase_module(1000, 4, 2048);
  const sym::Image img = scc::compile(*mod);
  auto ex1 = testfix::quick_collect(img, "+dcrm,97");
  auto ex2 = testfix::quick_collect(img, "+ecrm,211", "hi");
  analyze::Analysis a1(ex1);
  analyze::Analysis a2(ex2);
  analyze::Analysis merged({&ex1, &ex2});
  for (size_t m = 0; m < analyze::kNumMetrics; ++m) {
    EXPECT_DOUBLE_EQ(merged.total()[m], a1.total()[m] + a2.total()[m]);
    EXPECT_DOUBLE_EQ(merged.data_total()[m], a1.data_total()[m] + a2.data_total()[m]);
  }
}

TEST(MergeResults, MultiDirReductionEqualsMergedSingleDirsUnderRandomSplits) {
  // The fleet-merge identity: reducing each dir on its own (through the
  // daemon's incremental fold path, under a random batch split) and merging
  // the per-dir results must render byte-for-byte what one offline
  // multi-dir reduction over the same dirs renders — integer aggregates
  // make the fold associative across batches AND across dirs.
  auto mod = testfix::make_chase_module(800, 4, 2048);
  const sym::Image img = scc::compile(*mod);
  const auto ex_a = testfix::quick_collect(img, "+ecstall,1009,+ecrm,97", "hi");
  const auto ex_b = testfix::quick_collect(img, "+dcrm,101", "on");
  const auto ex_c = testfix::quick_collect(img, "+dtlbm,31", "hi");
  const std::vector<const experiment::Experiment*> dirs = {&ex_a, &ex_b, &ex_c};
  const std::string offline = analyze::render_json_report(analyze::Analysis(dirs));
  // Offline Reduction::run merges per-shard segments the same way; the
  // serial std::map oracle pins both to the seed's fold on any core count.
  EXPECT_EQ(analyze::render_json_report(analyze::Analysis(dirs, oracle::reduce(dirs))), offline);

  std::mt19937_64 rng(20030815);
  for (int round = 0; round < 3; ++round) {
    std::vector<analyze::ReductionResult> parts;
    for (const auto* ex : dirs) {
      analyze::IncrementalReducer red(ex->image.symtab, ex->counters);
      size_t begin = 0;
      while (begin < ex->events.size()) {
        std::uniform_int_distribution<size_t> d(1, ex->events.size() - begin);
        const size_t end = begin + d(rng);
        red.fold(ex->events, begin, end);
        begin = end;
      }
      parts.push_back(red.snapshot());
    }
    std::vector<const analyze::ReductionResult*> ptrs;
    for (const auto& p : parts) ptrs.push_back(&p);
    analyze::Analysis merged(dirs, analyze::merge_results(ptrs));
    EXPECT_EQ(analyze::render_json_report(merged), offline) << "round " << round;
  }
}

TEST(MergeResults, DifferentBinariesRefuseToMerge) {
  // Cross-binary merges would attribute one program's PCs to another's
  // symbols; the function-name tables are the same-binary witness.
  auto mod1 = testfix::make_chase_module(500, 3, 1024);
  const sym::Image img1 = scc::compile(*mod1);
  const sym::Image img2 = mcfsim::build_mcf_image();
  const auto ex1 = testfix::quick_collect(img1, "+dcrm,97");
  const auto ex2 = testfix::quick_collect(img2, "+dcrm,97");
  const analyze::ReductionResult r1 = analyze::Reduction::run({&ex1});
  const analyze::ReductionResult r2 = analyze::Reduction::run({&ex2});
  EXPECT_THROW(analyze::merge_results({&r1, &r2}), Error);
}

TEST(ClockRates, HigherRateMeansMoreSamples) {
  auto mod = testfix::make_chase_module(800, 4, 1024);
  const sym::Image img = scc::compile(*mod);
  auto count_clock = [&](const char* rate) {
    auto ex = testfix::quick_collect(img, "", rate);
    size_t n = 0;
    for (const auto& e : ex.events) n += e.pic == machine::kClockPic;
    return n;
  };
  const size_t hi = count_clock("hi");
  const size_t on = count_clock("on");
  EXPECT_GT(hi, on * 5);  // "hi" samples ~10x as often
}

TEST(CollectorWindow, WiderBacktrackWindowFindsMoreCandidates) {
  auto mod = testfix::make_chase_module(1500, 4, 4096);
  const sym::Image img = scc::compile(*mod);
  auto candidates = [&](u32 window) {
    collect::CollectOptions opt;
    opt.hw = "+ecref,211";
    opt.backtrack_window = window;
    collect::Collector c(img, opt);
    auto ex = c.run();
    size_t n = 0, total = 0;
    for (const auto& e : ex.events) {
      if (e.pic == machine::kClockPic) continue;
      ++total;
      n += e.has_candidate;
    }
    return std::make_pair(n, total);
  };
  const auto [n1, t1] = candidates(1);
  const auto [n16, t16] = candidates(16);
  ASSERT_EQ(t1, t16);  // deterministic event stream
  EXPECT_LT(n1, n16);
  EXPECT_GT(n16, t16 / 2);
}

TEST(SkidZero, PerfectAttributionEndToEnd) {
  // With a precise-trap machine (skid 0) every validated event attributes to
  // the exact triggering instruction — the whole backtracking pipeline
  // degenerates to identity, as it should.
  auto mod = testfix::make_chase_module(1200, 8, 2048);
  const sym::Image img = scc::compile(*mod);
  machine::CpuConfig cfg;
  cfg.skid_scale = 0.0;
  cfg.hierarchy.dcache = {4 * 1024, 4, 32, false};  // plenty of D$ misses
  auto ex = testfix::quick_collect(img, "+dcrm,89", "off", cfg);
  std::map<u64, machine::TruthRecord> truth;
  for (const auto& t : ex.truth) truth[t.seq] = t;
  size_t n = 0;
  for (const auto& e : ex.events) {
    if (e.pic == machine::kClockPic) continue;
    ++n;
    ASSERT_TRUE(e.has_candidate);
    EXPECT_EQ(e.candidate_pc, truth.at(e.seq).trigger_pc);
    ASSERT_TRUE(e.has_ea);
    EXPECT_EQ(e.ea, truth.at(e.seq).ea);
  }
  EXPECT_GT(n, 50u);
  analyze::Analysis a(ex);
  for (const auto& r : a.effectiveness()) {
    EXPECT_DOUBLE_EQ(r.effectiveness(), 1.0);
  }
}

TEST(McfScaling, ObjectiveIndependentOfActivationSchedule) {
  // The optimum must not depend on how many candidates start active or on
  // the pricing cadence — only on the arc universe.
  mcf::GeneratorParams gp;
  gp.seed = 31;
  gp.nodes = 150;
  gp.arcs = 900;
  mcf::SimplexParams sp;
  std::vector<mcf::cost_t> costs;
  for (double frac : {0.05, 0.3, 1.0}) {
    mcf::Network net = mcf::generate_instance(gp);
    costs.push_back(mcf::solve(net, sp, frac));
  }
  EXPECT_EQ(costs[0], costs[1]);
  EXPECT_EQ(costs[1], costs[2]);
}

TEST(McfScaling, RefreshGapDoesNotChangeObjective) {
  mcf::GeneratorParams gp;
  gp.seed = 77;
  gp.nodes = 120;
  gp.arcs = 700;
  std::vector<mcf::cost_t> costs;
  for (i64 gap : {1, 7, 1000000}) {
    mcf::Network net = mcf::generate_instance(gp);
    mcf::SimplexParams sp;
    sp.refresh_gap = gap;
    costs.push_back(mcf::solve(net, sp));
  }
  EXPECT_EQ(costs[0], costs[1]);
  EXPECT_EQ(costs[1], costs[2]);
}

}  // namespace
}  // namespace dsprof

// src/opt/ — LayoutPlan round-trips (text + JSON, fixed and fuzzed), applier
// idempotence (byte-identical images), planner determinism across reduction
// thread counts, the affinity analyzer's member/window evidence, and the
// closed loop reproducing (or beating) the hand-tuned churn fix.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "analyze/metrics.hpp"
#include "collect/collector.hpp"
#include "experiment/experiment.hpp"
#include "opt/apply.hpp"
#include "opt/driver.hpp"
#include "sa/cfg.hpp"
#include "sa/dataflow.hpp"
#include "sa/loops.hpp"
#include "scc/builder.hpp"
#include "scc/compile.hpp"
#include "support/rng.hpp"
#include "sym/image.hpp"

namespace dsprof::opt {
namespace {

using machine::HwEvent;

LayoutPlan sample_plan() {
  LayoutPlan p;
  p.metric = "ecstall";
  p.page_size_hint = 512 * 1024;
  StructDirective node;
  node.struct_name = "node";
  node.member_order = {"orientation", "child", "potential", "pred", "basic_arc"};
  node.pad_to = 128;
  node.align_line = true;
  node.note = "hot 5/15 members; pad 120->128";
  StructDirective arc;
  arc.struct_name = "arc";
  arc.prefetch = true;
  arc.note = "streaming sweep -> prefetch";
  p.structs = {arc, node};  // sorted by name
  return p;
}

TEST(PlanRoundTrip, Text) {
  const LayoutPlan p = sample_plan();
  const std::string text = plan_to_text(p);
  EXPECT_EQ(plan_from_text(text), p);
  // Serialization is itself stable.
  EXPECT_EQ(plan_to_text(plan_from_text(text)), text);
}

TEST(PlanRoundTrip, Json) {
  const LayoutPlan p = sample_plan();
  const std::string json = plan_to_json(p);
  EXPECT_EQ(plan_from_json(json), p);
  EXPECT_EQ(plan_to_json(plan_from_json(json)), json);
}

TEST(PlanRoundTrip, EmptyPlan) {
  LayoutPlan p;
  p.metric = "ecstall";
  EXPECT_EQ(plan_from_text(plan_to_text(p)), p);
  EXPECT_EQ(plan_from_json(plan_to_json(p)), p);
}

TEST(PlanRoundTrip, Fuzzed) {
  Xoshiro256 rng(20260809);
  const std::vector<std::string> names = {"a", "bb", "ccc", "hot_a", "x9", "m_",
                                          "pad1", "zz", "q", "r2d2"};
  for (int iter = 0; iter < 200; ++iter) {
    LayoutPlan p;
    p.metric = names[rng.below(names.size())];
    if (rng.below(2) != 0) p.page_size_hint = (u64{1} << (12 + rng.below(10)));
    const size_t nstructs = rng.below(4);
    for (size_t s = 0; s < nstructs; ++s) {
      StructDirective d;
      d.struct_name = names[rng.below(names.size())] + std::to_string(s);
      const size_t nmem = rng.below(names.size());
      std::vector<std::string> pool = names;
      for (size_t m = 0; m < nmem; ++m) {
        const size_t pick = static_cast<size_t>(rng.below(pool.size()));
        d.member_order.push_back(pool[pick]);
        pool.erase(pool.begin() + static_cast<long>(pick));
      }
      if (rng.below(2) != 0) d.pad_to = 8 * (1 + rng.below(64));
      d.align_line = rng.below(2) != 0;
      d.prefetch = rng.below(2) != 0;
      if (rng.below(2) != 0) d.note = "note with spaces & \"quotes\" \\ and tabs\t!";
      p.structs.push_back(std::move(d));
    }
    EXPECT_EQ(plan_from_text(plan_to_text(p)), p) << plan_to_text(p);
    EXPECT_EQ(plan_from_json(plan_to_json(p)), p) << plan_to_json(p);
  }
}

TEST(PlanRoundTrip, MalformedInputsThrow) {
  EXPECT_THROW(plan_from_text(""), Error);                    // no header
  EXPECT_THROW(plan_from_text("metric x\n"), Error);          // no header
  const std::string h = "# dsprof layout plan v1\n";
  EXPECT_THROW(plan_from_text(h + "bogus keyword\n"), Error);
  EXPECT_THROW(plan_from_text(h + "order a b\n"), Error);     // outside struct
  EXPECT_THROW(plan_from_text(h + "struct s\n"), Error);      // unterminated
  EXPECT_THROW(plan_from_text(h + "struct s\npad x\nend\n"), Error);
  EXPECT_THROW(plan_from_text(h + "struct s\nalign word\nend\n"), Error);
  EXPECT_THROW(plan_from_text(h + "struct s\nstruct t\n"), Error);  // nested
  EXPECT_THROW(plan_from_json(""), Error);
  EXPECT_THROW(plan_from_json("{\"version\":2}"), Error);
  EXPECT_THROW(plan_from_json("{\"metric\":\"x\"} junk"), Error);
  EXPECT_THROW(plan_from_json("{\"wat\":1}"), Error);
  EXPECT_THROW(plan_from_json("{\"structs\":[{\"pad_to\":-1}]}"), Error);
}

// --- applier ---------------------------------------------------------------

std::unique_ptr<scc::Module> record_module() {
  auto mod = std::make_unique<scc::Module>();
  scc::StructDef* rec = mod->add_struct("record");
  rec->field("id", scc::Type::i64())
      .field("hot_a", scc::Type::i64())
      .field("hot_b", scc::Type::i64())
      .field("cold", scc::Type::i64());
  return mod;
}

TEST(Apply, ReorderAndPad) {
  auto mod = record_module();
  LayoutPlan p;
  StructDirective d;
  d.struct_name = "record";
  d.member_order = {"hot_a", "hot_b", "id", "cold"};
  d.pad_to = 64;
  p.structs.push_back(d);
  const ApplyStats st = apply_plan(*mod, p);
  EXPECT_EQ(st.reordered, 1u);
  EXPECT_EQ(st.padded, 1u);
  EXPECT_TRUE(st.clean());
  scc::StructDef* rec = mod->find_struct("record");
  EXPECT_EQ(rec->offset_of("hot_a"), 0u);
  EXPECT_EQ(rec->offset_of("hot_b"), 8u);
  EXPECT_EQ(rec->offset_of("id"), 16u);
  EXPECT_EQ(rec->size(), 64u);
}

TEST(Apply, SkipsUnknownStructAndBadOrder) {
  auto mod = record_module();
  LayoutPlan p;
  StructDirective ghost;
  ghost.struct_name = "ghost";
  ghost.pad_to = 64;
  StructDirective bad;
  bad.struct_name = "record";
  bad.member_order = {"id", "hot_a"};  // incomplete permutation
  StructDirective low;
  low.struct_name = "record";
  low.pad_to = 8;  // below natural size
  p.structs = {ghost, bad, low};
  const ApplyStats st = apply_plan(*mod, p);
  EXPECT_EQ(st.reordered, 0u);
  EXPECT_EQ(st.padded, 0u);
  EXPECT_EQ(st.skipped.size(), 3u);
  // The module is untouched.
  EXPECT_EQ(mod->find_struct("record")->offset_of("id"), 0u);
  EXPECT_EQ(mod->find_struct("record")->size(), 32u);
}

std::string image_bytes(const sym::Image& img) {
  ByteWriter w;
  img.serialize(w);
  const std::vector<u8> v = w.take();
  return std::string(v.begin(), v.end());
}

TEST(Apply, IdempotentByteIdenticalImages) {
  // Same plan applied to fresh builds -> byte-identical compiled images;
  // applying the plan twice to the same module changes nothing either.
  const Workload w = make_churn_workload();
  const LayoutPlan plan = churn_hand_plan();
  const std::string once = image_bytes(w.build(&plan));
  const std::string again = image_bytes(w.build(&plan));
  EXPECT_EQ(once, again);

  auto mod = record_module();
  LayoutPlan p;
  StructDirective d;
  d.struct_name = "record";
  d.member_order = {"hot_b", "hot_a", "cold", "id"};
  d.pad_to = 64;
  p.structs.push_back(d);
  apply_plan(*mod, p);
  const u64 off1 = mod->find_struct("record")->offset_of("hot_b");
  const u64 size1 = mod->find_struct("record")->size();
  apply_plan(*mod, p);
  EXPECT_EQ(mod->find_struct("record")->offset_of("hot_b"), off1);
  EXPECT_EQ(mod->find_struct("record")->size(), size1);
}

// --- affinity + planner over a real profile --------------------------------

class ChurnLoop : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(make_churn_workload());
    image_ = new sym::Image(workload_->build(nullptr));
    collect::CollectOptions copt;
    copt.hw = workload_->hw;
    copt.clock = workload_->clock;
    copt.cpu = workload_->cpu;
    collect::Collector c(*image_, copt);
    ex_ = new experiment::Experiment(c.run());
  }
  static void TearDownTestSuite() {
    delete ex_;
    delete image_;
    delete workload_;
  }
  static Workload* workload_;
  static sym::Image* image_;
  static experiment::Experiment* ex_;
};

Workload* ChurnLoop::workload_ = nullptr;
sym::Image* ChurnLoop::image_ = nullptr;
experiment::Experiment* ChurnLoop::ex_ = nullptr;

TEST_F(ChurnLoop, MemberAccessesCarryWindowsAndAddresses) {
  analyze::Analysis a(*ex_);
  const auto& acc = a.member_accesses();
  ASSERT_FALSE(acc.empty());
  EXPECT_GT(a.access_windows(), 0u);
  const sym::TypeId rec = a.symtab().types().find_struct("record");
  ASSERT_NE(rec, sym::kInvalidType);
  size_t with_ea = 0;
  for (const auto& s : acc) {
    EXPECT_EQ(s.sid, rec);  // the only struct in the image
    EXPECT_LT(s.window, a.access_windows());
    EXPECT_GT(s.weight, 0u);
    if (s.has_ea) ++with_ea;
  }
  EXPECT_GT(with_ea, 0u);
  // Sample counts: clock events land under User CPU.
  EXPECT_GT(a.sample_counts()[analyze::kUserCpuMetric], 0u);
  EXPECT_GT(a.sample_counts()[static_cast<size_t>(HwEvent::EC_stall_cycles)], 0u);
}

TEST_F(ChurnLoop, AffinityFindsHotPair) {
  analyze::Analysis a(*ex_);
  const AffinityReport r = analyze_affinity(a);
  ASSERT_EQ(r.structs.size(), 1u);
  const StructReport& sr = r.structs[0];
  EXPECT_EQ(sr.name, "record");
  EXPECT_TRUE(sr.heap_resident);
  // hot_a and hot_b dominate the member heat and co-occur in windows.
  size_t ia = 0, ib = 0;
  for (size_t i = 0; i < sr.members.size(); ++i) {
    if (sr.members[i].name == "hot_a") ia = i;
    if (sr.members[i].name == "hot_b") ib = i;
  }
  EXPECT_GT(sr.members[ia].weight, 0.0);
  EXPECT_GT(sr.members[ib].weight, 0.0);
  EXPECT_GT(sr.aff(ia, ib), 0.0);
  EXPECT_FALSE(r.hot_lines.empty());
  EXPECT_GT(r.pages.hot_pages, 0u);
  EXPECT_GT(r.pages.hot_heap_bytes, 0u);
}

TEST_F(ChurnLoop, PlannerReproducesHandTunedLayout) {
  analyze::Analysis a(*ex_);
  const Planned p = plan_for(a);
  const StructDirective* d = p.plan.find("record");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->member_order.size(), 8u);
  // The hand-tuned fix packs hot_a/hot_b first (either order packs them
  // into one D$ line).
  const std::set<std::string> front = {d->member_order[0], d->member_order[1]};
  EXPECT_EQ(front, (std::set<std::string>{"hot_a", "hot_b"}));
  // Prime-stride modulo walk has no affine stride: no prefetch directive.
  EXPECT_FALSE(d->prefetch);
}

TEST(ClosedLoop, ChurnMatchesHandTunedWithinTwoPercent) {
  const Workload w = make_churn_workload();
  DriverOptions opt;
  const LoopResult r = run_loop(w, opt);
  EXPECT_GT(r.speedup_pct, 0.0);

  // Hand-tuned reference on the same workload/machine.
  const LayoutPlan hand = churn_hand_plan();
  auto measure = [&](const sym::Image& img) {
    mem::Memory mem;
    img.load_into(mem);
    machine::Cpu cpu(mem, w.cpu_for(&hand));
    cpu.set_truth_log_enabled(false);
    cpu.set_pc(img.entry);
    return cpu.run().cycles;
  };
  const u64 hand_cycles = measure(w.build(&hand));
  const double hand_pct = 100.0 * (1.0 - static_cast<double>(hand_cycles) /
                                             static_cast<double>(r.baseline_cycles));
  // Acceptance bar: the automatic plan is at least as good as the hand fix,
  // within 2% relative.
  EXPECT_GE(r.speedup_pct, hand_pct * 0.98)
      << "auto " << r.speedup_pct << "% vs hand " << hand_pct << "%";

  // The delta report covers every profiled metric with sample counts.
  const MetricDelta* ucpu = r.delta_for(analyze::kUserCpuMetric);
  ASSERT_NE(ucpu, nullptr);
  EXPECT_GT(ucpu->n_before, 0u);
  EXPECT_GT(ucpu->delta_pct, 0.0);
  EXPECT_TRUE(ucpu->significant);
}

// --- static stride export --------------------------------------------------

TEST(StructStrides, LinearSweepIsStreaming) {
  // A linear sweep over a struct array: the exported stride must equal the
  // struct size (streaming), feeding the planner's prefetch cross-check.
  scc::Module mod;
  scc::StructDef* cell = mod.add_struct("cell");
  cell->field("v", scc::Type::i64()).field("w", scc::Type::i64());
  scc::Function* mal = scc::add_runtime(mod);
  scc::Function* main_fn = mod.add_function("main");
  {
    scc::FunctionBuilder fb(mod, *main_fn);
    auto cs = fb.local("cs", scc::Type::ptr(cell));
    auto i = fb.local("i", scc::Type::i64());
    auto sum = fb.local("sum", scc::Type::i64());
    const i64 n = 256;
    fb.set(cs, scc::cast(fb.call(mal, {scc::Val(n * static_cast<i64>(cell->size()))}),
                         scc::Type::ptr(cell)));
    auto p = fb.local("p", scc::Type::ptr(cell));
    fb.set(sum, 0);
    fb.set(i, 0);
    fb.while_(i < n, [&] {
      fb.set(p, cs + i);
      fb.set(sum, sum + p["v"]);
      fb.set(i, i + 1);
    });
    fb.ret(sum);
  }
  const sym::Image img = scc::compile(mod);
  const sa::Cfg cfg = sa::Cfg::build(img);
  const sa::ProgramFacts pf = sa::ProgramFacts::build(img, cfg);
  const sa::LoopAnalysis la = sa::LoopAnalysis::build(pf, img);
  const auto strides = sa::export_struct_strides(la, img.symtab);
  bool found = false;
  for (const auto& s : strides) {
    if (img.symtab.types().get(s.sid).name != "cell") continue;
    if (s.has_stride && s.stride == static_cast<i64>(cell->size())) found = true;
  }
  EXPECT_TRUE(found) << "no streaming stride over cell exported ("
                     << strides.size() << " records)";
}

}  // namespace
}  // namespace dsprof::opt

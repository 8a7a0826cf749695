// src/opt/ — the exact bytes of LayoutPlan's text and JSON forms, applier
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
#include "obs/obs.hpp"
#include "opt/apply.hpp"
#include "opt/driver.hpp"
#include "sa/cfg.hpp"
#include "sa/dataflow.hpp"
#include "sa/loops.hpp"
#include "scc/builder.hpp"
#include "scc/compile.hpp"
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
  EXPECT_EQ(plan_to_text(sample_plan()),
            "# dsprof layout plan v1\n"
            "metric ecstall\n"
            "pagesize 524288\n"
            "struct arc\n"
            "  prefetch\n"
            "  note streaming sweep -> prefetch\n"
            "end\n"
            "struct node\n"
            "  order orientation child potential pred basic_arc\n"
            "  pad 128\n"
            "  align line\n"
            "  note hot 5/15 members; pad 120->128\n"
            "end\n");
}

TEST(PlanRoundTrip, Json) {
  EXPECT_EQ(plan_to_json(sample_plan()),
            "{\"version\":1,\"metric\":\"ecstall\",\"page_size_hint\":524288,\"structs\":["
            "{\"name\":\"arc\",\"order\":[],\"pad_to\":0,\"align_line\":false,"
            "\"prefetch\":true,\"note\":\"streaming sweep -> prefetch\"},"
            "{\"name\":\"node\",\"order\":[\"orientation\",\"child\",\"potential\","
            "\"pred\",\"basic_arc\"],\"pad_to\":128,\"align_line\":true,"
            "\"prefetch\":false,\"note\":\"hot 5/15 members; pad 120->128\"}]}");
  // Strings are escaped.
  LayoutPlan p;
  StructDirective d;
  d.struct_name = "s";
  d.note = "a \"b\" \\ c\td\n";
  p.structs = {d};
  EXPECT_NE(plan_to_json(p).find("\"note\":\"a \\\"b\\\" \\\\ c\\td\\n\""),
            std::string::npos);
}

// One escaper for every JSON writer: quote and backslash escaped, \n \r \t
// by name and any other control byte as \u00XX, so the output stays valid
// JSON whatever a name holds.
TEST(JsonEscape, ControlBytesThroughObsAndPlan) {
  const std::string raw = "a\"b\\c\nd\re\tf\x01g";
  const std::string lit = "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"";

  obs::Snapshot snap;
  snap.counters = {{raw, 7}};
  snap.gauges = {{raw, -1}};
  const std::string obs_json = snap.to_json();
  EXPECT_NE(obs_json.find("\"counters\":{" + lit + ":7}"), std::string::npos) << obs_json;
  EXPECT_NE(obs_json.find("\"gauges\":{" + lit + ":-1}"), std::string::npos) << obs_json;

  LayoutPlan plan;
  plan.metric = raw;
  StructDirective d;
  d.struct_name = raw;
  d.member_order = {raw};
  d.note = raw;
  plan.structs = {d};
  const std::string plan_json = plan_to_json(plan);
  EXPECT_NE(plan_json.find("\"metric\":" + lit), std::string::npos) << plan_json;
  EXPECT_NE(plan_json.find("\"name\":" + lit + ",\"order\":[" + lit + "]"), std::string::npos)
      << plan_json;
  EXPECT_NE(plan_json.find("\"note\":" + lit + "}"), std::string::npos) << plan_json;
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
  const analyze::Analysis::MemberAccesses acc = a.member_accesses();
  ASSERT_FALSE(acc.samples.empty());
  EXPECT_GT(acc.windows, 0u);
  const sym::TypeId rec = a.symtab().types().find_struct("record");
  ASSERT_NE(rec, sym::kInvalidType);
  size_t with_ea = 0;
  for (const auto& s : acc.samples) {
    EXPECT_EQ(s.sid, rec);  // the only struct in the image
    EXPECT_LT(s.window, acc.windows);
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

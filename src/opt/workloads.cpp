#include "opt/workloads.hpp"

#include "mcfsim/experiments.hpp"
#include "opt/apply.hpp"
#include "scc/builder.hpp"
#include "scc/compile.hpp"

namespace dsprof::opt {

namespace {

using scc::FunctionBuilder;
using scc::Type;
using scc::Val;

sym::Image build_churn(const LayoutPlan* plan) {
  scc::Module mod;
  scc::StructDef* rec = mod.add_struct("record");
  rec->field("id", Type::i64())
      .field("hot_a", Type::i64())
      .field("pad1", Type::i64())
      .field("pad2", Type::i64())
      .field("pad3", Type::i64())
      .field("hot_b", Type::i64())
      .field("pad4", Type::i64())
      .field("pad5", Type::i64());
  u64 malloc_align = 16;
  if (plan != nullptr) {
    apply_plan(mod, *plan);
    if (plan->wants_align()) malloc_align = 512;  // E$ line
  }
  scc::Function* mal = scc::add_runtime(mod, malloc_align);
  scc::Function* churn = mod.add_function("churn");
  {
    FunctionBuilder fb(mod, *churn);
    auto rs = fb.param("rs", Type::ptr(rec));
    auto n = fb.param("n", Type::i64());
    auto i = fb.local("i", Type::i64());
    auto p = fb.local("p", Type::ptr(rec));
    auto sum = fb.local("sum", Type::i64());
    fb.set(sum, 0);
    fb.set(i, 0);
    fb.while_(i < n, [&] {
      fb.set(p, rs + (i * 6151) % n);  // prime stride: cache-hostile order
      fb.set(sum, sum + p["hot_a"] + p["hot_b"]);
      fb.set(i, i + 1);
    });
    fb.ret(sum);
  }
  scc::Function* main_fn = mod.add_function("main");
  {
    FunctionBuilder fb(mod, *main_fn);
    auto rs = fb.local("rs", Type::ptr(rec));
    auto it = fb.local("it", Type::i64());
    const i64 n = 40000;
    fb.set(rs, scc::cast(fb.call(mal, {Val(n * static_cast<i64>(rec->size()))}),
                         Type::ptr(rec)));
    fb.set(it, 0);
    fb.while_(it < 12, [&] {
      fb.call_stmt(churn, {rs, Val(n)});
      fb.set(it, it + 1);
    });
    fb.ret(Val(0));
  }
  return scc::compile(mod);
}

machine::CpuConfig churn_machine() {
  // D$ far smaller than the record array (no sweep reuse), E$ large enough
  // to back D$ misses with hits — the regime where member packing pays.
  machine::CpuConfig cfg;
  cfg.hierarchy.dcache = {8 * 1024, 4, 32, false};
  cfg.hierarchy.ecache = {4 * 1024 * 1024, 2, 512, true};
  return cfg;
}

mcfsim::PaperSetup mcf_setup(bool small) {
  // The §3.3 experiment regime (bench/opt_speedups): D$ far smaller than the
  // node array, E$ backing D$ misses with hits, DTLB reach the heap exceeds.
  mcfsim::PaperSetup s = small ? mcfsim::PaperSetup::small() : mcfsim::PaperSetup::standard();
  s.cpu.hierarchy.dcache = {8 * 1024, 4, 32, false};
  s.cpu.hierarchy.ecache = {small ? 256 * 1024ULL : 1024 * 1024ULL, 2, 512, true};
  s.cpu.hierarchy.dtlb = {small ? 16u : 64u, 2, 8 * 1024};
  return s;
}

}  // namespace

machine::CpuConfig Workload::cpu_for(const LayoutPlan* plan) const {
  machine::CpuConfig cfg = cpu;
  if (plan != nullptr && plan->page_size_hint != 0) {
    cfg.hierarchy.dtlb.page_size = plan->page_size_hint;
  }
  return cfg;
}

Workload make_mcf_workload(bool small) {
  const mcfsim::PaperSetup s = mcf_setup(small);
  Workload w;
  w.name = small ? "mcf-small" : "mcf";
  w.description = small ? "MCF case study, scaled-down instance (fast smoke)"
                        : "the paper's MCF case study on the §3.3 machine regime";
  w.cpu = s.cpu;
  w.hw = "+ecstall,20011,+ecrm,211";
  w.clock = "hi";
  w.build = [s](const LayoutPlan* plan) {
    mcfsim::BuildOptions b = s.build;
    if (plan != nullptr) {
      b.layout_hook = [plan](scc::Module& m) { apply_plan(m, *plan); };
      b.align_heap_arrays = plan->wants_align();
      const StructDirective* arc = plan->find("arc");
      b.prefetch_arc_scan = arc != nullptr && arc->prefetch;
    }
    return mcfsim::build_mcf_image(b);
  };
  w.setup = [s](machine::Cpu& cpu) { mcfsim::write_input(cpu.memory(), s.run); };
  return w;
}

Workload make_churn_workload() {
  Workload w;
  w.name = "churn";
  w.description = "record-churn microbenchmark (two hot members, prime-stride sweep)";
  w.cpu = churn_machine();
  w.hw = "+ecstall,hi,+ecrm,hi";
  w.clock = "hi";
  w.build = [](const LayoutPlan* plan) { return build_churn(plan); };
  w.setup = nullptr;
  return w;
}

LayoutPlan churn_hand_plan() {
  LayoutPlan plan;
  plan.metric = "ecstall";
  StructDirective d;
  d.struct_name = "record";
  d.member_order = {"hot_a", "hot_b", "id", "pad1", "pad2", "pad3", "pad4", "pad5"};
  d.pad_to = 64;
  d.align_line = true;
  d.note = "hand-tuned: pack hot_a/hot_b into one D$ line, pad to a power of two";
  plan.structs.push_back(std::move(d));
  return plan;
}

Workload workload_by_name(const std::string& name) {
  if (name == "mcf") return make_mcf_workload(false);
  if (name == "mcf-small") return make_mcf_workload(true);
  if (name == "churn") return make_churn_workload();
  fail("unknown workload \"" + name + "\" (try: mcf, mcf-small, churn)");
}

}  // namespace dsprof::opt

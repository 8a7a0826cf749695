#include "opt/driver.hpp"

#include <cmath>
#include <sstream>

#include "collect/collector.hpp"
#include "sa/cfg.hpp"
#include "support/table.hpp"

namespace dsprof::opt {

namespace {

MetricDelta make_delta(size_t metric, double before, double after, u64 n_before,
                       u64 n_after) {
  MetricDelta d;
  d.metric = metric;
  d.name = analyze::metric_short_name(metric);
  d.before = before;
  d.after = after;
  d.n_before = n_before;
  d.n_after = n_after;
  d.delta_pct = before > 0 ? 100.0 * (before - after) / before : 0;
  // s.e.(T) ~ T/sqrt(n) per run; combine in quadrature (driver.hpp header).
  double var = 0;
  if (n_before > 0) var += before * before / static_cast<double>(n_before);
  if (n_after > 0) var += after * after / static_cast<double>(n_after);
  d.z = var > 0 ? std::abs(before - after) / std::sqrt(var) : 0;
  d.significant = d.z >= 2.0;
  return d;
}

std::string json_num(double v) {
  std::ostringstream os;
  os << static_cast<u64>(v + 0.5);
  return os.str();
}

}  // namespace

const MetricDelta* LoopResult::delta_for(size_t metric) const {
  for (const auto& d : deltas) {
    if (d.metric == metric) return &d;
  }
  return nullptr;
}

Planned plan_for(const analyze::Analysis& a, const DriverOptions& opt,
                 u32 dtlb_entries) {
  AffinityOptions ao;
  ao.metric = opt.metric;
  ao.top_lines = opt.top_lines;

  // The static loop/stride cross-check for the affinity report: one CFG +
  // dataflow pass over the image.
  const sa::Cfg cfg = sa::Cfg::build(a.image());
  const sa::ProgramFacts pf = sa::ProgramFacts::build(a.image(), cfg);
  const sa::LoopAnalysis la = sa::LoopAnalysis::build(pf, a.image());

  Planned p;
  p.affinity = analyze_affinity(a, &la, ao);

  PlanOptions po;
  po.line_size = a.ec_line_size();
  po.dtlb_entries = dtlb_entries;
  p.plan = plan_layout(p.affinity, po);
  return p;
}

LoopResult run_loop(const Workload& w, const DriverOptions& opt) {
  LoopResult r;
  r.workload = w.name;

  auto profile = [&](const sym::Image& img, const machine::CpuConfig& cfg) {
    collect::CollectOptions copt;
    copt.hw = opt.hw.empty() ? w.hw : opt.hw;
    copt.clock = w.clock;
    copt.cpu = cfg;
    collect::Collector c(img, copt);
    return c.run(w.setup);
  };
  auto measure = [&](const sym::Image& img, const machine::CpuConfig& cfg) {
    mem::Memory mem;
    img.load_into(mem);
    machine::Cpu cpu(mem, cfg);
    cpu.set_truth_log_enabled(false);
    cpu.set_pc(img.entry);
    if (w.setup) w.setup(cpu);
    const machine::RunResult rr = cpu.run();
    DSP_CHECK(rr.halted, "er_opt: workload " + w.name + " did not run to completion");
    return rr.cycles;
  };

  // 1. Profile the baseline build and plan from it.
  const sym::Image base = w.build(nullptr);
  const experiment::Experiment ex_before = profile(base, w.cpu_for(nullptr));
  analyze::Analysis a_before(ex_before);
  Planned planned = plan_for(a_before, opt, w.cpu.hierarchy.dtlb.entries);
  r.affinity = std::move(planned.affinity);
  r.plan = std::move(planned.plan);

  // 2. Apply (inside the workload's build) and re-profile.
  const sym::Image tuned = w.build(&r.plan);
  const machine::CpuConfig cpu_tuned = w.cpu_for(&r.plan);
  const experiment::Experiment ex_after = profile(tuned, cpu_tuned);
  analyze::Analysis a_after(ex_after);

  // 3. Uninstrumented end-to-end cycle comparison.
  r.baseline_cycles = measure(base, w.cpu_for(nullptr));
  r.optimized_cycles = measure(tuned, cpu_tuned);
  r.speedup_pct = 100.0 * (1.0 - static_cast<double>(r.optimized_cycles) /
                                     static_cast<double>(r.baseline_cycles));

  // 4. Per-metric deltas, rank metric first.
  const auto& tb = a_before.total();
  const auto& ta = a_after.total();
  const auto& nb = a_before.sample_counts();
  const auto& na = a_after.sample_counts();
  const auto& pb = a_before.present();
  const auto& pa = a_after.present();
  if (pb[opt.metric] || pa[opt.metric]) {
    r.deltas.push_back(
        make_delta(opt.metric, tb[opt.metric], ta[opt.metric], nb[opt.metric], na[opt.metric]));
  }
  for (size_t m = 0; m < analyze::kNumMetrics; ++m) {
    if (m == opt.metric || (!pb[m] && !pa[m])) continue;
    r.deltas.push_back(make_delta(m, tb[m], ta[m], nb[m], na[m]));
  }
  return r;
}

std::string loop_to_text(const LoopResult& r) {
  std::ostringstream os;
  os << "== er_opt closed loop: " << r.workload << " ==\n\n";
  os << affinity_to_text(r.affinity) << "\n";
  os << "-- plan --\n" << plan_to_text(r.plan);
  os << "\n-- verified re-run --\n";
  os << "baseline:  " << r.baseline_cycles << " cycles\n";
  os << "optimized: " << r.optimized_cycles << " cycles  (";
  {
    std::ostringstream pct;
    pct.setf(std::ios::fixed);
    pct.precision(1);
    pct << r.speedup_pct;
    os << pct.str() << "% faster)\n";
  }
  os << "\nmetric deltas (profiled totals, sampling significance):\n";
  for (const auto& d : r.deltas) {
    std::ostringstream row;
    row.setf(std::ios::fixed);
    row.precision(1);
    row << "  " << d.name << "\tbefore " << static_cast<u64>(d.before) << " (n="
        << d.n_before << ")\tafter " << static_cast<u64>(d.after) << " (n="
        << d.n_after << ")\t" << d.delta_pct << "%\tz=" << d.z
        << (d.significant ? "  significant" : "  not significant");
    os << row.str() << "\n";
  }
  return os.str();
}

std::string loop_to_json(const LoopResult& r) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "{\"workload\":\"" << json_escape(r.workload) << "\",\"plan\":" << plan_to_json(r.plan)
     << ",\"baseline_cycles\":" << r.baseline_cycles
     << ",\"optimized_cycles\":" << r.optimized_cycles
     << ",\"speedup_pct\":" << r.speedup_pct << ",\"deltas\":[";
  for (size_t i = 0; i < r.deltas.size(); ++i) {
    const auto& d = r.deltas[i];
    if (i) os << ",";
    os << "{\"metric\":\"" << json_escape(d.name) << "\",\"before\":" << json_num(d.before)
       << ",\"after\":" << json_num(d.after) << ",\"n_before\":" << d.n_before
       << ",\"n_after\":" << d.n_after << ",\"delta_pct\":" << d.delta_pct
       << ",\"z\":" << d.z << ",\"significant\":" << (d.significant ? "true" : "false")
       << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace dsprof::opt

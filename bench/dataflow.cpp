// DATAFLOW — throughput of the static dataflow pipeline (sa/dataflow.hpp,
// sa/loops.hpp): ProgramFacts + liveness + attribution coverage +
// dominators/loops/strides, end to end over the MCF case-study images.
//
// The analyses run once per image at verify time (s3verify) and before any
// simulation is spent, so the bar is absolute throughput, not a speedup:
// the whole pipeline must clear 1M instrs/s — orders of magnitude faster
// than simulating the image even once. Before timing, the coverage facts
// are gated: both hwcprof MCF images must be >= 90% statically attributable
// (the same floor scripts/check.sh enforces via s3verify --json).
//
// Emits one machine-readable JSON object on the last line.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "mcfsim/mcfsim.hpp"
#include "sa/cfg.hpp"
#include "sa/dataflow.hpp"
#include "sa/loops.hpp"

using namespace dsprof;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double best_of(int n, F&& fn) {
  double best = 1e300;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    if (s < best) best = s;
  }
  return best;
}

constexpr u32 kWindow = 16;
constexpr double kCoverageFloor = 0.90;
constexpr double kThroughputFloor = 1e6;  // instrs/s, full pipeline

/// One full static-analysis pipeline pass; returns a checksum so nothing
/// gets optimized away.
u64 run_pipeline(const sym::Image& img, const sa::Cfg& cfg,
                 const sa::BacktrackTable& table) {
  const sa::ProgramFacts pf = sa::ProgramFacts::build(img, cfg);
  const sa::Liveness lv = sa::Liveness::build(pf);
  const sa::AttributionCoverage cov = sa::AttributionCoverage::build(img, cfg, table);
  const sa::LoopAnalysis la = sa::LoopAnalysis::build(pf, img);
  return lv.solver_iterations() + cov.attributable() + la.loops().size();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::JsonSink json_out(argc, argv, "dataflow");
  std::puts("== DATAFLOW: static-analysis pipeline throughput (MCF images) ==");

  struct Target {
    std::string name;
    sym::Image img;
  };
  std::vector<Target> targets;
  targets.push_back({"mcf", mcfsim::build_mcf_image()});
  {
    mcfsim::BuildOptions bo;
    bo.optimized_node_layout = true;
    bo.align_heap_arrays = true;
    targets.push_back({"mcf-opt", mcfsim::build_mcf_image(bo)});
  }

  size_t total_instrs = 0;
  std::vector<double> fractions;
  bool coverage_ok = true;
  std::vector<sa::Cfg> cfgs;
  std::vector<sa::BacktrackTable> tables;
  for (const auto& t : targets) {
    cfgs.push_back(sa::Cfg::build(t.img));
    tables.push_back(sa::BacktrackTable::build(t.img, kWindow));
    const sa::AttributionCoverage cov =
        sa::AttributionCoverage::build(t.img, cfgs.back(), tables.back());
    const sa::ProgramFacts pf = sa::ProgramFacts::build(t.img, cfgs.back());
    const sa::LoopAnalysis la = sa::LoopAnalysis::build(pf, t.img);
    size_t strided = 0;
    for (const auto& l : la.loops()) {
      for (const auto& m : l.mem_refs) strided += m.has_stride ? 1 : 0;
    }
    total_instrs += t.img.text_words.size();
    fractions.push_back(cov.fraction());
    coverage_ok = coverage_ok && cov.fraction() >= kCoverageFloor;
    std::printf(
        "%-8s %5zu instrs  coverage %zu/%zu (%.1f%%)  %zu loop(s), %zu strided ref(s)%s\n",
        t.name.c_str(), t.img.text_words.size(), cov.attributable(),
        cov.reachable_mem_ops(), cov.fraction() * 100.0, la.loops().size(), strided,
        la.irreducible() ? "  [irreducible]" : "");
  }
  if (!coverage_ok) {
    std::fprintf(stderr, "FATAL: coverage below the %.0f%% floor\n",
                 kCoverageFloor * 100.0);
    return 1;
  }

  volatile u64 sink = 0;
  const double t_pipeline = best_of(5, [&] {
    u64 acc = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      acc += run_pipeline(targets[i].img, cfgs[i], tables[i]);
    }
    sink = acc;
  });
  (void)sink;

  const double instrs_per_sec = static_cast<double>(total_instrs) / t_pipeline;
  std::printf("\npipeline: %zu instrs over %zu images in %.2f ms  ->  %.3e instrs/s %s\n",
              total_instrs, targets.size(), t_pipeline * 1e3, instrs_per_sec,
              instrs_per_sec >= kThroughputFloor ? "(>= 1e6: PASS)" : "(< 1e6: FAIL)");

  json_out.emit(
      "{\"bench\":\"dataflow\",\"workload\":\"mcf-images\",\"images\":%zu,"
      "\"instrs\":%zu,\"window\":%u,\"pipeline_ms\":%.3f,"
      "\"pipeline_instrs_per_sec\":%.6e,\"coverage_mcf\":%.6f,"
      "\"coverage_mcf_opt\":%.6f,\"coverage_floor\":%.2f,"
      "\"throughput_floor\":%.1e,\"pass\":%s}",
      targets.size(), total_instrs, kWindow, t_pipeline * 1e3, instrs_per_sec,
      fractions[0], fractions[1], kCoverageFloor, kThroughputFloor,
      instrs_per_sec >= kThroughputFloor ? "true" : "false");
  return instrs_per_sec >= kThroughputFloor ? 0 : 1;
}

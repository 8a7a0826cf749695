// FW1 — paper §4 (future work): use the experiment to construct a prefetch
// feedback file, recompile with prefetch insertion, and measure.
//
// Two regimes, both anticipated by the paper:
//  * the streaming arc scan (primal_bea_mpp) CAN be prefetched ahead;
//  * the pointer-chasing arc.cost loads in refresh_potential CANNOT —
//    "their address was determined ... too soon to be effectively
//    prefetched" (§3.2.3).
#include <cstdio>

#include "analyze/feedback.hpp"
#include "bench_json.hpp"
#include "mcfsim/experiments.hpp"

using namespace dsprof;

int main(int argc, char** argv) {
  const bench::JsonSink json_out(argc, argv, "prefetch_feedback");
  std::puts("== FW1: prefetch feedback -> recompile with prefetch insertion ==");
  auto setup = mcfsim::PaperSetup::small();

  // 1. Profile and write the feedback file.
  const auto exps = mcfsim::collect_paper_experiments(setup);
  analyze::Analysis a({&exps.ex1, &exps.ex2});
  const auto entries =
      analyze::prefetch_feedback(a, static_cast<size_t>(machine::HwEvent::EC_stall_cycles));
  std::puts("-- feedback file --");
  std::fputs(analyze::feedback_to_text(entries).c_str(), stdout);

  // 2. Recompile with prefetch insertion for the feedback's streaming
  //    reference (the arc scan) and re-measure.
  const machine::RunResult before = mcfsim::measure_run(setup);
  auto pf = setup;
  pf.build.prefetch_arc_scan = true;
  const machine::RunResult after = mcfsim::measure_run(pf);
  const double gain =
      100.0 * (1.0 - static_cast<double>(after.cycles) / static_cast<double>(before.cycles));
  std::printf("\n  baseline:            %12llu cycles\n",
              static_cast<unsigned long long>(before.cycles));
  std::printf("  with arc-scan prefetch: %9llu cycles   speedup %.1f%%\n",
              static_cast<unsigned long long>(after.cycles), gain);
  std::puts("\nThe pointer-chasing refresh_potential references remain in the");
  std::puts("feedback file but cannot be prefetched (address known too late),");
  std::puts("exactly as the paper notes for node->basic_arc->cost.");
  json_out.emit(
      "{\"bench\":\"prefetch_feedback\",\"feedback_entries\":%zu,"
      "\"baseline_cycles\":%llu,\"prefetch_cycles\":%llu,\"speedup_pct\":%.2f}",
      entries.size(), static_cast<unsigned long long>(before.cycles),
      static_cast<unsigned long long>(after.cycles), gain);
  return 0;
}

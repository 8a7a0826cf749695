// PAPER — every view of the paper's two §3.1 collect runs, from one
// collection: Figures 1-7 (§3.2.1-§3.2.5), the §3.2.5 backtracking
// effectiveness figures and the §4 address-space and instance views. The
// pair is simulated once and one Analysis over ex1+ex2 feeds each view in
// turn; each view prints its report followed by its JSON line.
//
// `--json [dir]` writes each view's JSON object to dir/BENCH_<view>.json
// (default dir: the current directory).
#include <array>
#include <cstdio>
#include <map>
#include <string>

#include "analyze/reports.hpp"
#include "bench_json.hpp"
#include "mcfsim/experiments.hpp"

using namespace dsprof;

namespace {

using analyze::Analysis;
using bench::JsonSink;
using mcfsim::PaperExperiments;

// FIG1 — paper Figure 1: performance metrics for the artificial <Total>
// function, from the two MCF collect runs (§3.2.1).
//
// Paper values (550 s run, 900 MHz US-III Cu):
//   User CPU 549.4 s of 552.7 s LWP (~100% CPU bound)
//   E$ Stall 297.6 s  = 54% of User CPU
//   E$ Read Miss rate 6.4% (1.58e9 misses / 24.9e9 refs)
//   DTLB miss cost (at 100 cycles) ~28 s = ~5% of run
void fig1_total_metrics(const Analysis& a, const JsonSink& json_out) {
  std::puts("== FIG1: <Total> metrics (paper Figure 1) ==");
  std::fputs(analyze::render_overview(a).c_str(), stdout);

  const auto& t = a.total();
  const double stall = t[static_cast<size_t>(machine::HwEvent::EC_stall_cycles)];
  const double ucpu = t[analyze::kUserCpuMetric];
  const double ecrm = t[static_cast<size_t>(machine::HwEvent::EC_rd_miss)];
  const double ecref = t[static_cast<size_t>(machine::HwEvent::EC_ref)];
  const double dtlb = t[static_cast<size_t>(machine::HwEvent::DTLB_miss)];
  std::puts("\n-- paper-vs-measured (shape) --");
  std::printf("E$ stall / User CPU:    paper 0.54   measured %.2f\n",
              ucpu > 0 ? stall / ucpu : 0.0);
  std::printf("E$ read miss rate:      paper 6.4%%   measured %.1f%%\n",
              ecref > 0 ? 100.0 * ecrm / ecref : 0.0);
  std::printf("DTLB cost / run:        paper ~5%%    measured %.1f%%\n",
              100.0 * dtlb * 100.0 / static_cast<double>(a.run_cycles()));
  json_out.emit(
      "{\"bench\":\"fig1_total_metrics\",\"ecstall_over_ucpu\":%.4f,"
      "\"ec_rd_miss_rate_pct\":%.2f,\"dtlb_cost_pct\":%.2f,"
      "\"paper_ecstall_over_ucpu\":0.54,\"paper_ec_rd_miss_rate_pct\":6.4,"
      "\"paper_dtlb_cost_pct\":5.0}",
      ucpu > 0 ? stall / ucpu : 0.0, ecref > 0 ? 100.0 * ecrm / ecref : 0.0,
      100.0 * dtlb * 100.0 / static_cast<double>(a.run_cycles()));
}

// FIG2 — paper Figure 2: the function list with exclusive User CPU, E$ Stall
// Cycles, E$ Read Misses, E$ Refs and DTLB Misses (§3.2.2).
//
// Paper shape: refresh_potential 51% CPU / 62% stall / 62% misses / 88% DTLB;
// primal_bea_mpp 23% CPU / 30% stall / 42% refs but only 4% misses (0.6%
// miss rate vs refresh_potential's 10.3%); price_out_impl 22% CPU.
void fig2_function_list(const Analysis& a, const JsonSink& json_out) {
  std::puts("== FIG2: function list (paper Figure 2) ==");
  std::fputs(analyze::render_function_list(a).c_str(), stdout);

  // Per-function E$ read miss rate, the paper's §3.2.2 observation.
  std::puts("\n-- E$ read miss rates --");
  const auto ecrm = static_cast<size_t>(machine::HwEvent::EC_rd_miss);
  const auto ecref = static_cast<size_t>(machine::HwEvent::EC_ref);
  double refresh_rate = 0.0, primal_rate = 0.0;
  for (const auto& f : a.functions(ecrm)) {
    if (f.mv[ecref] <= 0) continue;
    const double rate = 100.0 * f.mv[ecrm] / f.mv[ecref];
    if (f.name == "refresh_potential") refresh_rate = rate;
    if (f.name == "primal_bea_mpp") primal_rate = rate;
    if (f.mv[ecref] / a.total()[ecref] > 0.01) {
      std::printf("  %-24s %6.1f%%\n", f.name.c_str(), rate);
    }
  }
  std::puts("\npaper: refresh_potential dominates CPU/stalls/DTLB;");
  std::puts("       primal_bea_mpp has many refs but a ~17x lower miss rate.");

  // The §2.3 callers-callees view for the top function.
  std::puts("");
  std::fputs(analyze::render_callers_callees(a, "refresh_potential").c_str(), stdout);
  const auto& top = a.functions(analyze::kUserCpuMetric);
  json_out.emit(
      "{\"bench\":\"fig2_function_list\",\"top_function\":\"%s\","
      "\"refresh_potential_miss_rate_pct\":%.2f,"
      "\"primal_bea_mpp_miss_rate_pct\":%.2f,"
      "\"paper_miss_rates_pct\":[10.3,0.6]}",
      top.empty() ? "" : top.front().name.c_str(), refresh_rate, primal_rate);
}

// FIG3 — paper Figure 3: annotated source of refresh_potential's critical
// loop, with User CPU and E$ Stall Cycles per source line (§3.2.3).
void fig3_annotated_source(const PaperExperiments& exps, const Analysis& a,
                           const JsonSink& json_out) {
  std::puts("== FIG3: annotated source of refresh_potential (paper Figure 3) ==");
  const std::string report = analyze::render_annotated_source(a, "refresh_potential");
  std::fputs(report.c_str(), stdout);
  std::puts("\npaper: the potential-update lines (node->potential = "
            "node->basic_arc->cost ...) carry the bulk of E$ stall time.");
  json_out.emit(
      "{\"bench\":\"fig3_annotated_source\",\"function\":\"refresh_potential\","
      "\"events\":%zu,\"render_bytes\":%zu}",
      exps.ex1.events.size() + exps.ex2.events.size(), report.size());
}

// FIG4 — paper Figure 4: annotated disassembly of refresh_potential's
// critical loop: per-instruction metrics, compiler-inserted nop padding,
// `*<branch target>` rows for blocked backtracking, and data descriptors
// ({structure:node -}.{long orientation}, {structure:arc -}.{cost_t=long
// cost}) on the memory-referencing instructions (§3.2.3).
void fig4_annotated_disasm(const PaperExperiments& exps, const Analysis& a,
                           const JsonSink& json_out) {
  std::puts("== FIG4: annotated disassembly of refresh_potential (paper Figure 4) ==");
  const std::string report = analyze::render_annotated_disassembly(a, "refresh_potential");
  std::fputs(report.c_str(), stdout);
  std::puts("\npaper observations reproduced here:");
  std::puts(" * E$ stall lands on ldx instructions (backtracking found the trigger)");
  std::puts(" * User CPU appears on unlikely instructions (clock skid, uncorrectable)");
  std::puts(" * starred <branch target> rows absorb events blocked by control flow");
  std::puts(" * nop padding separates memory ops from join nodes (-xhwcprof)");
  json_out.emit(
      "{\"bench\":\"fig4_annotated_disasm\",\"function\":\"refresh_potential\","
      "\"events\":%zu,\"render_bytes\":%zu}",
      exps.ex1.events.size() + exps.ex2.events.size(), report.size());
}

// FIG5 — paper Figure 5: PCs ranked by E$ Read Misses, named as
// "function + 0xOFFSET" with their data descriptors (§3.2.4).
//
// Paper shape: the top PC is in primal_bea_mpp ({structure:arc}.{ident});
// the next several are refresh_potential's node.orientation and arc.cost
// loads.
void fig5_hot_pcs(const PaperExperiments& exps, const Analysis& a, const JsonSink& json_out) {
  std::puts("== FIG5: hot PCs by E$ Read Misses (paper Figure 5) ==");
  const std::string report =
      analyze::render_hot_pcs(a, static_cast<size_t>(machine::HwEvent::EC_rd_miss), 17);
  std::fputs(report.c_str(), stdout);
  json_out.emit(
      "{\"bench\":\"fig5_hot_pcs\",\"metric\":\"ecrm\",\"top_n\":17,"
      "\"events\":%zu,\"render_bytes\":%zu}",
      exps.ex1.events.size() + exps.ex2.events.size(), report.size());
}

// FIG6 — paper Figure 6: data objects ranked by E$ Stall Cycles, with the
// <Unknown> breakdown, plus the §3.2.5 backtracking-effectiveness figures.
//
// Paper shape: structure:arc 56% of stalls / 59% of read misses;
// structure:node 42% / 40%; <Unknown> ~2% of stalls but 19% of E$ refs
// (refs skid the most). Effectiveness: >99% stalls, ~100% read misses,
// 100% DTLB, ~94% refs.
void fig6_data_objects(const Analysis& a, const JsonSink& json_out) {
  std::puts("== FIG6: data objects by E$ Stall Cycles (paper Figure 6) ==");
  std::fputs(
      analyze::render_data_objects(a, static_cast<size_t>(machine::HwEvent::EC_stall_cycles))
          .c_str(),
      stdout);
  std::puts("");
  std::fputs(analyze::render_effectiveness(a).c_str(), stdout);
  std::puts("\npaper: arc+node carry ~98% of stalls; effectiveness 100% (dtlb),");
  std::puts("       ~100% (ecrm), >99% (ecstall), ~94% (ecref, largest skid).");
  double eff[analyze::kNumMetrics] = {};
  for (const auto& r : a.effectiveness()) eff[r.metric] = r.effectiveness();
  json_out.emit(
      "{\"bench\":\"fig6_data_objects\",\"eff_ecstall_pct\":%.2f,"
      "\"eff_ecrm_pct\":%.2f,\"eff_ecref_pct\":%.2f,\"eff_dtlbm_pct\":%.2f,"
      "\"paper_eff_pct\":[99.0,100.0,94.0,100.0]}",
      100.0 * eff[static_cast<size_t>(machine::HwEvent::EC_stall_cycles)],
      100.0 * eff[static_cast<size_t>(machine::HwEvent::EC_rd_miss)],
      100.0 * eff[static_cast<size_t>(machine::HwEvent::EC_ref)],
      100.0 * eff[static_cast<size_t>(machine::HwEvent::DTLB_miss)]);
}

// FIG7 — paper Figure 7: expansion of the structure:node data object into
// its members (§3.2.5), plus the cache-line-split statistic that motivates
// the §3.3 layout fix.
//
// Paper shape: of node's 42% stall share, the bulk is orientation (+56),
// child (+24) and potential (+88); 28% of the 120-byte nodes straddle a
// 512-byte E$ line.
void fig7_node_expansion(const Analysis& a, const JsonSink& json_out) {
  std::puts("== FIG7: structure:node member expansion (paper Figure 7) ==");
  std::fputs(analyze::render_member_expansion(a, "node").c_str(), stdout);
  std::puts("");
  std::fputs(analyze::render_member_expansion(a, "arc").c_str(), stdout);

  // Split-object statistic: the node array is the second allocation
  // (network struct is first).
  double split_pct = 0.0, split128_pct = 0.0;
  if (a.allocations().size() >= 2) {
    const u64 base = a.allocations()[1].addr;
    const u64 size = a.allocations()[1].size;
    const u64 count = size / 120;
    const double frac = Analysis::split_fraction(base, 120, count, 512);
    std::printf("\n%.0f%% of the %llu 120-byte node objects straddle a 512 B E$ line "
                "(paper: 28%%)\n",
                100.0 * frac, static_cast<unsigned long long>(count));
    const double frac128 = Analysis::split_fraction(base & ~u64{511}, 128, count, 512);
    std::printf("after pad-to-128 + array alignment: %.0f%%\n", 100.0 * frac128);
    split_pct = 100.0 * frac;
    split128_pct = 100.0 * frac128;
  }
  json_out.emit(
      "{\"bench\":\"fig7_node_expansion\",\"node_split_pct\":%.1f,"
      "\"node_split_after_pad128_pct\":%.1f,\"paper_split_pct\":28.0}",
      split_pct, split128_pct);
}

// EFF — paper §3.2.5: apropos backtracking effectiveness per counter
// (100% - (Unresolvable) - (Unascertainable)), plus ground-truth accuracy
// that only the simulator can provide: how often the candidate trigger PC
// is exactly the true trigger, and how often it names the right data object.
//
// Paper: >99% (ecstall), ~100% (ecrm), 100% (dtlbm, precise), ~94% (ecref,
// greatest skid); "accuracies of nearly 100%" for well-understood events.
void effectiveness(const PaperExperiments& exps, const Analysis& a, const JsonSink& json_out) {
  std::puts("== EFF: backtracking effectiveness & ground-truth accuracy ==");
  std::fputs(analyze::render_effectiveness(a).c_str(), stdout);

  std::puts("\n-- ground truth (simulator-only oracle) --");
  const sym::SymbolTable& st = exps.ex1.image.symtab;
  u64 gt_events = 0, gt_exact = 0, gt_object = 0;
  for (const experiment::Experiment* ex : {&exps.ex1, &exps.ex2}) {
    std::map<u64, machine::TruthRecord> truth;
    for (const auto& t : ex->truth) truth[t.seq] = t;
    std::map<machine::HwEvent, std::array<u64, 3>> acc;  // [events, exact, same-object]
    for (const auto& e : ex->events) {
      if (e.pic == machine::kClockPic || !e.has_candidate) continue;
      auto& c = acc[e.event];
      ++c[0];
      const auto& t = truth.at(e.seq);
      if (e.candidate_pc == t.trigger_pc) ++c[1];
      const sym::MemRef* cr = st.memref_for(e.candidate_pc);
      const sym::MemRef* tr = st.memref_for(t.trigger_pc);
      if (cr && tr && cr->kind == tr->kind && cr->aggregate == tr->aggregate) ++c[2];
    }
    for (const auto& [ev, c] : acc) {
      std::printf("  %-8s events %6llu  exact-PC %5.1f%%  same-object %5.1f%%\n",
                  machine::hw_event_info(ev).name, static_cast<unsigned long long>(c[0]),
                  100.0 * static_cast<double>(c[1]) / static_cast<double>(c[0]),
                  100.0 * static_cast<double>(c[2]) / static_cast<double>(c[0]));
      gt_events += c[0];
      gt_exact += c[1];
      gt_object += c[2];
    }
  }
  double eff[analyze::kNumMetrics] = {};
  for (const auto& r : a.effectiveness()) eff[r.metric] = r.effectiveness();
  json_out.emit(
      "{\"bench\":\"effectiveness\",\"eff_ecstall_pct\":%.2f,\"eff_ecrm_pct\":%.2f,"
      "\"eff_ecref_pct\":%.2f,\"eff_dtlbm_pct\":%.2f,\"ground_truth_events\":%llu,"
      "\"exact_pc_pct\":%.2f,\"same_object_pct\":%.2f}",
      100.0 * eff[static_cast<size_t>(machine::HwEvent::EC_stall_cycles)],
      100.0 * eff[static_cast<size_t>(machine::HwEvent::EC_rd_miss)],
      100.0 * eff[static_cast<size_t>(machine::HwEvent::EC_ref)],
      100.0 * eff[static_cast<size_t>(machine::HwEvent::DTLB_miss)],
      static_cast<unsigned long long>(gt_events),
      gt_events ? 100.0 * static_cast<double>(gt_exact) / static_cast<double>(gt_events) : 0.0,
      gt_events ? 100.0 * static_cast<double>(gt_object) / static_cast<double>(gt_events)
                : 0.0);
}

// FW2 — paper §4 (future work): aggregate event data addresses by machine
// entity — memory segment, page, and E$ cache line.
void address_views(const PaperExperiments& exps, const Analysis& a, const JsonSink& json_out) {
  std::puts("== FW2: address-space aggregation views (paper §4) ==");
  const auto stall = static_cast<size_t>(machine::HwEvent::EC_stall_cycles);
  const std::string segments = analyze::render_segments(a);
  const std::string pages = analyze::render_pages(a, stall, 10);
  const std::string lines = analyze::render_cache_lines(a, stall, 10);
  std::fputs(segments.c_str(), stdout);
  std::puts("");
  std::fputs(pages.c_str(), stdout);
  std::puts("");
  std::fputs(lines.c_str(), stdout);
  std::puts("\nAll of MCF's costly references are heap accesses, spread over many");
  std::puts("pages — the concentration justifies the §3.3 large-page experiment.");
  json_out.emit(
      "{\"bench\":\"address_views\",\"events\":%zu,\"segments_bytes\":%zu,"
      "\"pages_bytes\":%zu,\"cache_lines_bytes\":%zu}",
      exps.ex1.events.size() + exps.ex2.events.size(), segments.size(), pages.size(),
      lines.size());
}

// FW3 — paper §4 (future work): translate effective addresses into structure
// object instances via the allocation log and aggregate per instance.
void instance_view(const Analysis& a, const JsonSink& json_out) {
  std::puts("== FW3: per-instance aggregation (paper §4) ==");
  const std::string report =
      analyze::render_instances(a, static_cast<size_t>(machine::HwEvent::EC_stall_cycles), 8);
  std::fputs(report.c_str(), stdout);
  std::puts("\nMCF's allocations are a few big arrays (read_min allocates the node,");
  std::puts("arc and dummy-arc arrays), so instances map 1:1 onto those arrays;");
  std::puts("programs with per-object allocation get per-object resolution.");
  json_out.emit(
      "{\"bench\":\"instance_view\",\"allocations\":%zu,\"render_bytes\":%zu}",
      a.allocations().size(), report.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;  // --json [dir]; empty: the JSON lines go to stdout only
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--json") continue;
    dir = i + 1 < argc && argv[i + 1][0] != '-' ? argv[++i] : ".";
  }
  const auto exps = mcfsim::collect_paper_experiments(mcfsim::PaperSetup::standard());
  const Analysis a({&exps.ex1, &exps.ex2});
  fig1_total_metrics(a, JsonSink(dir, "fig1_total_metrics"));
  fig2_function_list(a, JsonSink(dir, "fig2_function_list"));
  fig3_annotated_source(exps, a, JsonSink(dir, "fig3_annotated_source"));
  fig4_annotated_disasm(exps, a, JsonSink(dir, "fig4_annotated_disasm"));
  fig5_hot_pcs(exps, a, JsonSink(dir, "fig5_hot_pcs"));
  fig6_data_objects(a, JsonSink(dir, "fig6_data_objects"));
  fig7_node_expansion(a, JsonSink(dir, "fig7_node_expansion"));
  effectiveness(exps, a, JsonSink(dir, "effectiveness"));
  address_views(exps, a, JsonSink(dir, "address_views"));
  instance_view(a, JsonSink(dir, "instance_view"));
  return 0;
}

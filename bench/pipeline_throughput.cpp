// PIPELINE — throughput of the two hot pipeline stages over the FIG1
// workload (the paper's two MCF collect runs, §3.1):
//
//   append:    events/sec appended into the columnar EventStore (the
//              collection hot path: column pushes + callstack interning);
//   reduce:    events/sec folded into view aggregates, for the seed's
//              serial std::map fold (the tests/ oracle, the in-run machine
//              yardstick), and Reduction::run (the radix fold, one
//              reducer per experiment);
//   backtrack: events/sec through overflow backtracking, replaying the
//              delivered PCs of the collected events against the dynamic
//              decode loop and the precomputed sa::BacktrackTable.
//
// Emits one machine-readable JSON object on the last line; the human-
// readable summary goes before it. Acceptance bar: a fold-stage floor on
// Reduction::run — 5x the 7.3M events/s once committed for the hash fold
// the radix fold replaced, normalized for machine speed via the in-run
// oracle measurement (see the floor computation below;
// DSPROF_BENCH_FLOOR_FOLD_EVENTS_PER_SEC overrides with an absolute
// events/s floor, 0 disables). The backtrack table's own >= 2x bar is
// enforced by bench/backtrack_table.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analyze/reduction.hpp"
#include "backtrack_oracle.hpp"
#include "bench_json.hpp"
#include "mcfsim/experiments.hpp"
#include "reduce_oracle.hpp"
#include "sa/backtrack_table.hpp"

using namespace dsprof;
using oracle::backtrack_dynamic;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-N wall time of `fn` (seconds).
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

/// Replay every event of `ex` into `out` (the collection append path,
/// minus the simulated machine).
void replay(const experiment::Experiment& ex, experiment::EventStore& out) {
  const auto& ev = ex.events;
  for (size_t i = 0; i < ev.size(); ++i) {
    const auto e = ev[i];
    const auto cs = ev.callstack(i);
    out.append(e.pic, e.event, e.weight, e.delivered_pc, e.has_candidate, e.candidate_pc,
               e.has_ea, e.ea, cs.ptr, cs.len, e.seq);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::JsonSink json_out(argc, argv, "pipeline_throughput");
  std::puts("== PIPELINE: event-store append + reduction throughput (FIG1 workload) ==");
  const auto setup = mcfsim::PaperSetup::standard();
  const auto exps = mcfsim::collect_paper_experiments(setup);
  const std::vector<const experiment::Experiment*> both = {&exps.ex1, &exps.ex2};
  const size_t n_events = exps.ex1.events.size() + exps.ex2.events.size();
  const size_t n_unique =
      exps.ex1.events.unique_callstacks() + exps.ex2.events.unique_callstacks();
  std::printf("events: %zu   unique callstacks: %zu   arena: %zu words\n", n_events,
              n_unique, exps.ex1.events.arena_words() + exps.ex2.events.arena_words());

  // --- append ---------------------------------------------------------------
  const double t_append = best_of(5, [&] {
    experiment::EventStore store;
    replay(exps.ex1, store);
    replay(exps.ex2, store);
    if (store.size() != n_events) std::abort();
  });
  const double append_eps = static_cast<double>(n_events) / t_append;

  // --- reduction ------------------------------------------------------------
  const double t_baseline = best_of(3, [&] { oracle::reduce(both); });
  const double t_radix = best_of(5, [&] { analyze::Reduction::run(both); });

  // Equivalence spot-check: the product must agree exactly with the oracle.
  const auto rb = oracle::reduce(both);
  const auto rr = analyze::Reduction::run(both);
  if (rb.events_reduced != rr.events_reduced || rb.total != rr.total ||
      rb.data_total != rr.data_total) {
    std::fputs("FATAL: oracle and radix reductions disagree\n", stderr);
    return 1;
  }

  // --- backtrack ------------------------------------------------------------
  // Replay the delivered PCs of the collected events through both backtracking
  // engines (same synthetic register file per event for both).
  struct BtQuery {
    u64 delivered_pc;
    machine::TriggerKind kind;
  };
  std::vector<BtQuery> bt;
  for (const auto* ex : both) {
    for (size_t i = 0; i < ex->events.size(); ++i) {
      const auto e = ex->events[i];
      bt.push_back({e.delivered_pc, machine::hw_event_info(e.event).trigger});
    }
  }
  constexpr u32 kWindow = 16;
  std::array<u64, 32> regs{};
  u64 seed = 0x2545f4914f6cdd1dULL;
  for (size_t r = 1; r < 32; ++r) regs[r] = seed = mix_u64(seed + r);
  const sym::Image& img = exps.ex1.image;
  const sa::BacktrackTable btab = sa::BacktrackTable::build(img, kWindow);
  volatile u64 bt_sink = 0;
  const double t_bt_dyn = best_of(5, [&] {
    u64 acc = 0;
    for (const auto& q : bt)
      acc += backtrack_dynamic(img, q.delivered_pc, q.kind, regs, kWindow).candidate_pc;
    bt_sink = acc;
  });
  const double t_bt_tab = best_of(5, [&] {
    u64 acc = 0;
    for (const auto& q : bt) acc += btab.query(q.delivered_pc, q.kind, regs).candidate_pc;
    bt_sink = acc;
  });
  (void)bt_sink;
  const double bt_dyn_eps = static_cast<double>(bt.size()) / t_bt_dyn;
  const double bt_tab_eps = static_cast<double>(bt.size()) / t_bt_tab;
  const double bt_speedup = bt_tab_eps / bt_dyn_eps;

  const double base_eps = static_cast<double>(n_events) / t_baseline;
  const double rx_eps = static_cast<double>(n_events) / t_radix;

  std::printf("\n%-28s %12s %14s\n", "stage", "time (ms)", "events/sec");
  std::printf("%-28s %12.2f %14.3e\n", "append (columnar store)", t_append * 1e3, append_eps);
  std::printf("%-28s %12.2f %14.3e\n", "reduce oracle (std::map)", t_baseline * 1e3,
              base_eps);
  std::printf("%-28s %12.2f %14.3e\n", "reduce radix", t_radix * 1e3, rx_eps);
  std::printf("%-28s %12.2f %14.3e\n", "backtrack dynamic (loop)", t_bt_dyn * 1e3,
              bt_dyn_eps);
  std::printf("%-28s %12.2f %14.3e\n", "backtrack table (sa)", t_bt_tab * 1e3, bt_tab_eps);
  std::printf("\nradix vs oracle speedup: %.2fx\n", rx_eps / base_eps);
  std::printf("backtrack table vs dynamic speedup: %.2fx\n", bt_speedup);

  // Fold-stage floor: the radix fold must deliver its acceptance bar — 5x
  // the hash fold it replaced (7.302848M events/s, committed in
  // BENCH_pipeline_throughput.json before that fold was deleted) —
  // normalized for runner speed using the std::map oracle as the in-run
  // yardstick (committed 1.802810M events/s). A fixed absolute floor
  // conflates fold speedup with machine speed: shared runners here vary by
  // 30%+ between sweeps, and stage-to-stage within one run. The 0.7 noise
  // allowance absorbs that intra-run variance while still failing loudly if
  // the fused fast path regresses toward per-event folding (which would
  // land at the hash fold's ~4x oracle, less than half the gate).
  // DSPROF_BENCH_FLOOR_FOLD_EVENTS_PER_SEC overrides with an absolute
  // floor; 0 disables.
  const double committed_sharded = 7.302848e6;
  const double committed_baseline = 1.802810e6;
  double fold_floor = 5.0 * (committed_sharded / committed_baseline) * 0.7 * base_eps;
  if (const char* env = std::getenv("DSPROF_BENCH_FLOOR_FOLD_EVENTS_PER_SEC")) {
    fold_floor = std::atof(env);
  }
  const bool fold_pass = fold_floor <= 0.0 || rx_eps >= fold_floor;
  std::printf("fold floor: %.0f events/s (machine-normalized) -> %s\n", fold_floor,
              fold_pass ? "pass" : "FAIL");

  json_out.emit(
      "{\"bench\":\"pipeline_throughput\",\"workload\":\"FIG1\",\"events\":%zu,"
      "\"unique_callstacks\":%zu,"
      "\"append_events_per_sec\":%.6e,\"baseline_events_per_sec\":%.6e,"
      "\"radix_events_per_sec\":%.6e,\"fold_floor_events_per_sec\":%.0f,"
      "\"backtrack_dynamic_events_per_sec\":%.6e,"
      "\"backtrack_table_events_per_sec\":%.6e,\"backtrack_speedup\":%.3f}",
      n_events, n_unique, append_eps, base_eps, rx_eps, fold_floor,
      bt_dyn_eps, bt_tab_eps, bt_speedup);
  return fold_pass ? 0 : 1;
}

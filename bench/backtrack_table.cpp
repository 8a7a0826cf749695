// BACKTRACK — throughput of overflow-event backtracking: the seed's dynamic
// per-event decode loop (`backtrack_dynamic`, O(window) per event) against
// the precomputed sa::BacktrackTable (one array load per event).
//
// The query stream replays every word-aligned delivered PC of the MCF image
// (the paper's case-study program) under both trigger kinds, with a
// deterministic pseudo-random register file per query — the same stream for
// both engines.  Before timing anything, every query is checked for exact
// agreement: candidate PC, found flag, EA-known flag, and the EA itself must
// be bit-identical.  A disagreement is a correctness bug, not a perf result,
// and exits 1 immediately.
//
// Emits one machine-readable JSON object on the last line.  Acceptance bar
// (ISSUE): table >= 2x dynamic throughput; exits 1 below that.
#include <chrono>
#include <cstdio>
#include <vector>

#include "backtrack_oracle.hpp"
#include "bench_json.hpp"
#include "mcfsim/mcfsim.hpp"
#include "sa/backtrack_table.hpp"
#include "support/flat_hash.hpp"

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

struct Query {
  u64 delivered_pc;
  machine::TriggerKind kind;
  std::array<u64, 32> regs;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::JsonSink json_out(argc, argv, "backtrack_table");
  std::puts("== BACKTRACK: table-driven vs dynamic backtracking (MCF image) ==");
  const sym::Image img = mcfsim::build_mcf_image();
  constexpr u32 kWindow = 16;

  // Build the query stream: every delivered PC in text (plus the one-past-end
  // PC a trailing overflow can deliver), both trigger kinds, splitmix regs.
  std::vector<Query> queries;
  queries.reserve((img.text_words.size() + 1) * 2);
  u64 seed = 0x9e3779b97f4a7c15ULL;
  for (size_t w = 0; w <= img.text_words.size(); ++w) {
    for (const auto kind : {machine::TriggerKind::Load, machine::TriggerKind::LoadStore}) {
      Query q;
      q.delivered_pc = img.text_base + w * 4;
      q.kind = kind;
      q.regs[0] = 0;
      for (size_t r = 1; r < 32; ++r) q.regs[r] = seed = mix_u64(seed + r);
      queries.push_back(q);
    }
  }
  std::printf("image: %zu instructions   queries: %zu   window: %u\n",
              img.text_words.size(), queries.size(), kWindow);

  // Table construction (amortized once per image by the collector).
  const auto tb0 = Clock::now();
  const sa::BacktrackTable table = sa::BacktrackTable::build(img, kWindow);
  const double t_build = seconds_since(tb0);
  std::printf("table: %zu entries, %zu bytes, built in %.3f ms\n", table.num_entries(),
              table.size_bytes(), t_build * 1e3);

  // Correctness gate before any timing: bit-identical answers on every query.
  size_t n_found = 0, n_ea = 0;
  for (const auto& q : queries) {
    const sa::BacktrackAnswer d =
        backtrack_dynamic(img, q.delivered_pc, q.kind, q.regs, kWindow);
    const sa::BacktrackAnswer t = table.query(q.delivered_pc, q.kind, q.regs);
    if (d.found != t.found || d.candidate_pc != t.candidate_pc ||
        d.ea_known != t.ea_known || d.ea != t.ea) {
      std::fprintf(stderr,
                   "FATAL: engines disagree at pc 0x%llx kind %u: "
                   "dynamic{found=%d pc=0x%llx ea_known=%d ea=0x%llx} "
                   "table{found=%d pc=0x%llx ea_known=%d ea=0x%llx}\n",
                   (unsigned long long)q.delivered_pc, (unsigned)q.kind, d.found,
                   (unsigned long long)d.candidate_pc, d.ea_known,
                   (unsigned long long)d.ea, t.found,
                   (unsigned long long)t.candidate_pc, t.ea_known,
                   (unsigned long long)t.ea);
      return 1;
    }
    n_found += d.found ? 1 : 0;
    n_ea += d.ea_known ? 1 : 0;
  }
  std::printf("agreement: %zu/%zu queries bit-identical (%zu resolved, %zu with EA)\n",
              queries.size(), queries.size(), n_found, n_ea);

  // Timed passes.  The volatile sink keeps the answer live without letting
  // the compiler hoist anything out of the loop.
  volatile u64 sink = 0;
  const double t_dynamic = best_of(5, [&] {
    u64 acc = 0;
    for (const auto& q : queries) {
      const auto a = backtrack_dynamic(img, q.delivered_pc, q.kind, q.regs, kWindow);
      acc += a.candidate_pc + a.ea + (a.found ? 1 : 0);
    }
    sink = acc;
  });
  const double t_table = best_of(5, [&] {
    u64 acc = 0;
    for (const auto& q : queries) {
      const auto a = table.query(q.delivered_pc, q.kind, q.regs);
      acc += a.candidate_pc + a.ea + (a.found ? 1 : 0);
    }
    sink = acc;
  });
  (void)sink;

  const double dyn_qps = static_cast<double>(queries.size()) / t_dynamic;
  const double tab_qps = static_cast<double>(queries.size()) / t_table;
  const double speedup = tab_qps / dyn_qps;
  // Queries handled before table construction pays for itself.
  const double breakeven =
      t_build / ((t_dynamic - t_table) / static_cast<double>(queries.size()));

  std::printf("\n%-24s %12s %14s\n", "engine", "time (ms)", "queries/sec");
  std::printf("%-24s %12.2f %14.3e\n", "dynamic (decode loop)", t_dynamic * 1e3, dyn_qps);
  std::printf("%-24s %12.2f %14.3e\n", "table (precomputed)", t_table * 1e3, tab_qps);
  std::printf("\ntable vs dynamic speedup: %.2fx %s   break-even: %.0f queries\n", speedup,
              speedup >= 2.0 ? "(>= 2x: PASS)" : "(< 2x: FAIL)", breakeven);

  json_out.emit(
      "{\"bench\":\"backtrack_table\",\"workload\":\"mcf-image\",\"queries\":%zu,"
      "\"window\":%u,\"table_bytes\":%zu,\"build_ms\":%.3f,"
      "\"dynamic_queries_per_sec\":%.6e,\"table_queries_per_sec\":%.6e,"
      "\"speedup\":%.3f,\"breakeven_queries\":%.0f,\"agree\":true}",
      queries.size(), kWindow, table.size_bytes(), t_build * 1e3, dyn_qps, tab_qps,
      speedup, breakeven);
  return speedup >= 2.0 ? 0 : 1;
}

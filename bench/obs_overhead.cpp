// OBS — the self-observability layer's acceptance bar (src/obs/): the
// instrumentation wired through the pipeline hot paths (per-shard and
// per-fold timing in Reduction::run, queue/fold accounting in the serve
// stack) must cost < 3% on the two throughput benches it rides in, *with
// obs enabled*.
//
// Method: the same process measures each hot path twice — obs disabled
// (set_enabled(false): every probe is one relaxed atomic-bool load) and
// obs enabled — as adjacent off/on pairs. The reported overhead is the
// median of the per-pair on/off ratios: pairing cancels slow clock/load
// drift and the median rejects scheduler outliers, which best-of-N does
// not on a loaded single-core box.
//
//   reduce: analyze::Reduction::run at its worker count over the FIG1 small
//           workload (the pipeline_throughput path);
//   ingest: full streaming session through the in-process pipe transport
//           into a live server session (the ingest_throughput path).
//
// On the side, the cross-layer agreement invariant (the er_print -O vs
// dsprofd Stats check, in-process): the obs counter "reduce.events.folded"
// must advance by exactly the events the reductions report, and
// "serve.events.dropped" by exactly the session's drop count.
//
// Exits nonzero when either overhead exceeds the bar
// (DSPROF_BENCH_OBS_MAX_PCT overrides; 0 disables) or the counters
// disagree. Emits one machine-readable JSON object on the last line
// (BENCH_obs.json under --json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analyze/reduction.hpp"
#include "bench_json.hpp"
#include "mcfsim/experiments.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace dsprof;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One full streaming session over `ex` (the ingest_throughput measured
/// path); returns wall seconds to the flush barrier.
double stream_once(const experiment::Experiment& ex, serve::Accounting* acct_out) {
  serve::Server server;
  auto [client_end, server_end] = serve::make_pipe_pair(/*capacity=*/4u << 20);
  server.add_session(std::move(server_end));
  serve::Client client(std::move(client_end));

  const auto t0 = Clock::now();
  serve::Accounting acct;
  const serve::Status st = serve::stream_experiment(client, ex, /*batch=*/8192, acct);
  const double secs = seconds_since(t0);
  DSP_CHECK(st.ok(), "stream failed: " + st.to_string());
  DSP_CHECK(acct.events_in == acct.events_reduced + acct.events_dropped,
            "accounting invariant violated");
  (void)client.close(acct);
  server.stop();
  if (acct_out != nullptr) *acct_out = acct;
  return secs;
}

/// Wall seconds of one `fn` run with obs in state `on`.
template <typename F>
double timed(bool on, F&& fn) {
  obs::set_enabled(on);
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::JsonSink json_out(argc, argv, "obs");
  std::puts("== OBS: self-observability overhead on the pipeline hot paths ==");

  const auto setup = mcfsim::PaperSetup::small();
  const auto exps = mcfsim::collect_paper_experiments(setup);
  const std::vector<const experiment::Experiment*> both = {&exps.ex1, &exps.ex2};
  const size_t n_reduce_events = exps.ex1.events.size() + exps.ex2.events.size();
  const unsigned threads = analyze::Reduction::resolve_threads();

  // Ingest workload: replicate the first run so a session is long enough to
  // measure (same construction as bench/ingest_throughput).
  experiment::Experiment ex;
  ex.image = exps.ex1.image;
  ex.counters = exps.ex1.counters;
  ex.clock_interval = exps.ex1.clock_interval;
  ex.clock_hz = exps.ex1.clock_hz;
  ex.page_size = exps.ex1.page_size;
  ex.ec_line_size = exps.ex1.ec_line_size;
  ex.allocations = exps.ex1.allocations;
  const size_t kReplicas = 8;
  ex.events.reserve(exps.ex1.events.size() * kReplicas);
  for (size_t i = 0; i < kReplicas; ++i) ex.events.append_store(exps.ex1.events);
  const size_t n_ingest_events = ex.events.size();
  std::printf("workload: reduce %zu events (%u threads), ingest %zu events\n",
              n_reduce_events, threads, n_ingest_events);

  // --- agreement: obs counters vs the reductions' own accounting -----------
  // (er_print -O and a dsprofd Stats frame key on exactly these counters.)
  obs::set_enabled(true);
  const obs::Snapshot s0 = obs::snapshot();
  const auto rr = analyze::Reduction::run(both);
  serve::Accounting acct;
  (void)stream_once(ex, &acct);
  const obs::Snapshot s1 = obs::snapshot();
  const u64 folded_delta = s1.counter_value("reduce.events.folded") -
                           s0.counter_value("reduce.events.folded");
  const u64 dropped_delta = s1.counter_value("serve.events.dropped") -
                            s0.counter_value("serve.events.dropped");
  const bool agree = folded_delta == rr.events_reduced + acct.events_reduced &&
                     dropped_delta == acct.events_dropped;
  std::printf("agreement: obs folded %llu == reduced %llu+%llu, obs dropped %llu == %llu: %s\n",
              static_cast<unsigned long long>(folded_delta),
              static_cast<unsigned long long>(rr.events_reduced),
              static_cast<unsigned long long>(acct.events_reduced),
              static_cast<unsigned long long>(dropped_delta),
              static_cast<unsigned long long>(acct.events_dropped),
              agree ? "ok" : "MISMATCH");

  // --- overhead: adjacent off/on pairs, median ratio ------------------------
  const int kReps = 13;
  const int kReduceRepeats = 16;
  // Each timed reduce sample folds the workload several times so the sample
  // is long enough (~50 ms) that scheduler ticks don't dominate the ratio.
  auto do_reduce = [&] {
    for (int k = 0; k < kReduceRepeats; ++k) (void)analyze::Reduction::run(both);
  };
  auto do_ingest = [&] { (void)stream_once(ex, nullptr); };
  (void)timed(false, do_reduce);  // warmup (allocator, page faults)
  (void)timed(false, do_ingest);
  std::vector<double> reduce_ratio, ingest_ratio;
  std::vector<double> reduce_off, ingest_off, reduce_on, ingest_on;
  for (int i = 0; i < kReps; ++i) {
    const double r_off = timed(false, do_reduce);
    const double r_on = timed(true, do_reduce);
    const double i_off = timed(false, do_ingest);
    const double i_on = timed(true, do_ingest);
    reduce_ratio.push_back(r_on / r_off);
    ingest_ratio.push_back(i_on / i_off);
    reduce_off.push_back(r_off);
    reduce_on.push_back(r_on);
    ingest_off.push_back(i_off);
    ingest_on.push_back(i_on);
  }
  obs::set_enabled(true);

  // Two noise-robust estimators of the true overhead: the median of the
  // paired ratios (cancels drift) and the ratio of the best-of floors
  // (noise-free lower envelope). Background load inflates each differently;
  // the gate takes the smaller — a real regression shows up in both.
  auto best = [](const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); };
  auto overhead_pct = [&](const std::vector<double>& ratios, const std::vector<double>& off,
                          const std::vector<double>& on) {
    return 100.0 * (std::min(median(ratios), best(on) / best(off)) - 1.0);
  };
  const double reduce_pct = overhead_pct(reduce_ratio, reduce_off, reduce_on);
  const double ingest_pct = overhead_pct(ingest_ratio, ingest_off, ingest_on);
  std::printf("\n%-8s %16s %18s\n", "path", "median off (ms)", "overhead");
  std::printf("%-8s %16.3f %+17.2f%%\n", "reduce", median(reduce_off) * 1e3, reduce_pct);
  std::printf("%-8s %16.3f %+17.2f%%\n", "ingest", median(ingest_off) * 1e3, ingest_pct);

  double max_pct = 3.0;
  if (const char* env = std::getenv("DSPROF_BENCH_OBS_MAX_PCT")) max_pct = std::atof(env);
  const bool under_bar =
      max_pct <= 0.0 || (reduce_pct < max_pct && ingest_pct < max_pct);
  const bool pass = under_bar && agree;
  std::printf("bar: < %.1f%% -> %s\n", max_pct, pass ? "pass" : "FAIL");

  json_out.emit(
      "{\"bench\":\"obs_overhead\",\"reduce_events\":%zu,\"ingest_events\":%zu,"
      "\"threads\":%u,\"reduce_overhead_pct\":%.3f,\"ingest_overhead_pct\":%.3f,"
      "\"max_overhead_pct\":%.1f,\"counters_agree\":%s,\"pass\":%s}",
      n_reduce_events, n_ingest_events, threads, reduce_pct, ingest_pct, max_pct,
      agree ? "true" : "false", pass ? "true" : "false");
  return pass ? 0 : 1;
}

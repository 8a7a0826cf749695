// FLEET — fleet-scale concurrent ingest through one dsprofd over TCP
// loopback: N collector clients connect (tcp://127.0.0.1:<ephemeral>),
// stream the paper's MCF collect run concurrently, and close; the daemon
// folds every session into live per-session aggregates.
//
// What it proves, beyond raw throughput:
//   - exact accounting at fleet scale: every session's flush triple
//     satisfies events_in == events_reduced + events_dropped, and the
//     server-wide totals equal the sum of the per-client triples;
//   - the merged fleet view stays byte-identical to an offline
//     multi-experiment reduction of the same runs while sessions are
//     retained (checked on a 3-session wave under the Block policy, where
//     nothing can drop);
//   - retention works under load: with more sessions than retain_sessions
//     the oldest completed sessions are evicted, the eviction counters add
//     up, and the cumulative totals never move backwards.
//
// Floor: the ROADMAP's production north star is 100+ concurrent
// collectors on one daemon. The bench sweeps 8/32/128 sessions and gates
// on the 128-session aggregate ingest rate, machine-normalized with the
// same std::map oracle yardstick as bench/ingest_throughput (shared
// runners vary 2x between sweeps; an absolute floor would gate the
// runner, not the code). DSPROF_BENCH_FLOOR_EVENTS_PER_SEC overrides with
// an absolute events/s floor; 0 disables.
//
// Emits one machine-readable JSON object on the last line.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analysis.hpp"
#include "analyze/reduction.hpp"
#include "analyze/reports.hpp"
#include "bench_json.hpp"
#include "mcfsim/experiments.hpp"
#include "reduce_oracle.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace dsprof;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct WaveResult {
  double secs = 0;
  serve::ServerStats stats;
};

/// One wave: `n_sessions` clients connect over TCP loopback and stream `ex`
/// concurrently; returns wall seconds from first connect to last flush and
/// the server stats after every session finalized.
WaveResult run_wave(const experiment::Experiment& ex, size_t n_sessions, size_t batch_events,
                    serve::ServerOptions sopt) {
  serve::Server server(sopt);
  serve::TcpListener listener("127.0.0.1", 0);
  const std::string uri = listener.endpoint();
  std::thread acceptor([&] { server.serve(listener); });

  WaveResult wr;
  std::vector<serve::Accounting> accts(n_sessions);
  std::vector<std::thread> clients;
  clients.reserve(n_sessions);
  const auto t0 = Clock::now();
  for (size_t i = 0; i < n_sessions; ++i) {
    clients.emplace_back([&, i] {
      serve::Status st;
      auto transport = serve::connect_with_retry(uri, st);
      DSP_CHECK(transport != nullptr, "connect failed: " + st.to_string());
      serve::Client client(std::move(transport));
      st = serve::stream_experiment(client, ex, batch_events, accts[i]);
      DSP_CHECK(st.ok(), "stream failed: " + st.to_string());
      serve::Accounting closed;
      st = client.close(closed);
      DSP_CHECK(st.ok(), "close failed: " + st.to_string());
    });
  }
  for (auto& t : clients) t.join();
  wr.secs = seconds_since(t0);

  listener.close();
  acceptor.join();
  server.wait_all();

  // Exact accounting, per session and fleet-wide: the per-client flush
  // triples must each balance, and the server totals must be their sum.
  serve::Accounting sum;
  for (size_t i = 0; i < n_sessions; ++i) {
    DSP_CHECK(accts[i].events_in == ex.events.size(), "accounting mismatch: events_in");
    DSP_CHECK(accts[i].events_in == accts[i].events_reduced + accts[i].events_dropped,
              "per-session accounting invariant violated");
    sum.events_in += accts[i].events_in;
    sum.events_reduced += accts[i].events_reduced;
    sum.events_dropped += accts[i].events_dropped;
  }
  wr.stats = server.stats();
  DSP_CHECK(wr.stats.events_in == sum.events_in, "server events_in != sum of clients");
  DSP_CHECK(wr.stats.events_reduced == sum.events_reduced,
            "server events_reduced != sum of clients");
  DSP_CHECK(wr.stats.events_dropped == sum.events_dropped,
            "server events_dropped != sum of clients");
  DSP_CHECK(wr.stats.sessions_total == n_sessions, "session count mismatch");
  // Retention bookkeeping: retained + evicted covers every completed
  // session, and eviction never disturbed the cumulative totals above.
  DSP_CHECK(wr.stats.sessions_retained + wr.stats.sessions_evicted == n_sessions,
            "retained + evicted != sessions");
  server.stop();
  return wr;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::JsonSink json_out(argc, argv, "fleet_load");
  std::puts("FLEET: concurrent TCP sessions through one dsprofd");

  const auto setup = mcfsim::PaperSetup::small();
  const auto exps = mcfsim::collect_paper_experiments(setup);
  const experiment::Experiment& ex = exps.ex1;
  const size_t n_events = ex.events.size();
  std::printf("workload: %zu events per session (MCF counter pair 1)\n", n_events);

  // Correctness on the side: a 3-session wave under the Block policy (no
  // loss possible), then the merged fleet view from a monitoring client
  // must render exactly the offline multi-experiment report of the same
  // three runs — the cross-session extension of the bit-identity invariant.
  {
    serve::ServerOptions sopt;
    sopt.overload = serve::ServerOptions::Overload::Block;
    serve::Server server(sopt);
    serve::TcpListener listener("127.0.0.1", 0);
    const std::string uri = listener.endpoint();
    std::thread acceptor([&] { server.serve(listener); });
    const size_t kCheckSessions = 3;
    std::vector<std::thread> clients;
    for (size_t i = 0; i < kCheckSessions; ++i) {
      clients.emplace_back([&] {
        serve::Status st;
        auto transport = serve::connect_with_retry(uri, st);
        DSP_CHECK(transport != nullptr, "connect failed: " + st.to_string());
        serve::Client client(std::move(transport));
        serve::Accounting acct;
        st = serve::stream_experiment(client, ex, 8192, acct);
        DSP_CHECK(st.ok(), "stream failed: " + st.to_string());
        DSP_CHECK(acct.events_dropped == 0, "drops under Block policy");
        serve::Accounting closed;
        st = client.close(closed);
        DSP_CHECK(st.ok(), "close failed: " + st.to_string());
      });
    }
    for (auto& t : clients) t.join();

    serve::Status st;
    auto transport = serve::connect_with_retry(uri, st);
    DSP_CHECK(transport != nullptr, "monitor connect failed: " + st.to_string());
    serve::Client monitor(std::move(transport));
    serve::Accounting macct;
    std::string merged_json;
    st = monitor.merged_snapshot(macct, merged_json);
    DSP_CHECK(st.ok(), "merged snapshot failed: " + st.to_string());
    DSP_CHECK(macct.events_in == kCheckSessions * n_events, "merged accounting mismatch");

    const std::vector<const experiment::Experiment*> three = {&ex, &ex, &ex};
    analyze::Analysis offline(three);
    const std::string offline_json = analyze::render_json_report(offline);
    DSP_CHECK(merged_json == offline_json, "merged snapshot != offline multi-dir report");
    std::puts("merged snapshot == offline multi-dir er_print -J: ok");

    serve::Accounting closed;
    (void)monitor.close(closed);
    listener.close();
    acceptor.join();
    server.stop();
  }

  // The load sweep: 8/32/128 concurrent sessions, default server options
  // (DropOldest + direct fold) so retention and drop accounting are
  // exercised exactly as deployed; 128 sessions > retain_sessions (64)
  // forces evictions under load.
  const std::vector<size_t> kSweep = {8, 32, 128};
  std::vector<double> sweep_eps;
  for (const size_t n : kSweep) {
    const WaveResult wr = run_wave(ex, n, 8192, serve::ServerOptions{});
    const double eps =
        static_cast<double>(n) * static_cast<double>(n_events) / wr.secs;
    sweep_eps.push_back(eps);
    std::printf(
        "fleet %3zu sessions: %.2fM events/s aggregate (%.2fs; dropped %llu, "
        "retained %llu, evicted %llu)\n",
        n, eps / 1e6, wr.secs, static_cast<unsigned long long>(wr.stats.events_dropped),
        static_cast<unsigned long long>(wr.stats.sessions_retained),
        static_cast<unsigned long long>(wr.stats.sessions_evicted));
  }
  const double eps_fleet = sweep_eps.back();

  // Machine-speed yardstick: the std::map reduction oracle (tests/)
  // against its committed rate (see bench/ingest_throughput). The fleet
  // floor asks the 128-session aggregate to sustain 40% of the
  // single-stream ingest floor — the dominant costs (decode + fold) are
  // per-session threads, but 128 sessions over a handful of cores pay real
  // scheduling and TCP loopback overhead.
  const std::vector<const experiment::Experiment*> one = {&exps.ex1};
  double t_base = 1e300;
  for (int i = 0; i < 2; ++i) {
    const auto t0 = Clock::now();
    oracle::reduce(one);
    t_base = std::min(t_base, seconds_since(t0));
  }
  const double base_eps = static_cast<double>(exps.ex1.events.size()) / t_base;
  const double committed_baseline = 1.802810e6;
  double floor = 4e6 * (base_eps / committed_baseline) * 0.8;
  if (const char* env = std::getenv("DSPROF_BENCH_FLOOR_EVENTS_PER_SEC")) {
    floor = std::atof(env);
  }
  const bool pass = floor <= 0.0 || eps_fleet >= floor;
  std::printf("oracle yardstick: %.2fM events/s (committed %.2fM)\n", base_eps / 1e6,
              committed_baseline / 1e6);
  std::printf("floor (128 sessions, aggregate): %.0f events/s (machine-normalized) -> %s\n",
              floor, pass ? "pass" : "FAIL");

  json_out.emit(
      "{\"bench\":\"fleet_load\",\"events_per_session\":%zu,\"batch_events\":8192,"
      "\"sessions\":[8,32,128],"
      "\"events_per_sec\":[%.0f,%.0f,%.0f],"
      "\"fleet_events_per_sec\":%.0f,"
      "\"baseline_events_per_sec\":%.0f,\"floor_events_per_sec\":%.0f,"
      "\"merged_matches_offline\":true,\"pass\":%s}",
      n_events, sweep_eps[0], sweep_eps[1], sweep_eps[2], eps_fleet, base_eps, floor,
      pass ? "true" : "false");
  return pass ? 0 : 1;
}

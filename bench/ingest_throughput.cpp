// INGEST — end-to-end streaming ingest throughput of the dsprofd stack
// (DESIGN.md §3.3): events/second from a collector client, through an
// in-process socket pair and the framed wire protocol, into a Server
// session's live IncrementalReducer aggregates.
//
// The measured path is the full production pipeline:
//   client: slice events into batches -> EventStore columnar encode ->
//           frame -> socket send (with real backpressure)
//   server: frame decode -> EventStore decode -> incremental fold into
//           live aggregates (inline in the reader while the reducer keeps
//           up, else through the bounded queue)
// ending with a flush barrier, so the clock stops only after every event
// is folded. Snapshot correctness (bit-identity vs offline) is asserted
// on the side.
//
// Floor: the ROADMAP's production-scale north star needs ingest to keep up
// with many concurrent collectors; with the zero-copy fast path (range
// batch encode, zero-copy decode, queue-free reader-thread folds into the
// radix fold) the acceptance bar is >= 10,000,000 events/s sustained
// through the in-process transport into live aggregates — normalized for
// machine speed using the std::map reduction oracle (tests/) as an in-run
// yardstick against its committed rate, exactly like
// bench/pipeline_throughput's fold floor (shared runners vary 2x between
// sweeps; an absolute floor would gate the runner, not the code). It exits
// nonzero below the floor (DSPROF_BENCH_FLOOR_EVENTS_PER_SEC overrides
// with an absolute events/s floor; 0 disables).
//
// Emits one machine-readable JSON object on the last line.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
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

/// One full streaming session over `ex`; returns wall seconds to the flush
/// barrier (hello/teardown excluded from the timed region would flatter the
/// result — everything a real collector pays is included).
double stream_once(const experiment::Experiment& ex, size_t batch_events,
                   std::string* snapshot_json) {
  serve::Server server;
  auto [client_end, server_end] = serve::make_pipe_pair();
  server.add_session(std::move(server_end));
  serve::Client client(std::move(client_end));

  const auto t0 = Clock::now();
  serve::Accounting acct;
  serve::Status st = serve::stream_experiment(client, ex, batch_events, acct);
  const double secs = seconds_since(t0);
  DSP_CHECK(st.ok(), "stream failed: " + st.to_string());
  DSP_CHECK(acct.events_in == ex.events.size(), "accounting mismatch: events_in");
  DSP_CHECK(acct.events_in == acct.events_reduced + acct.events_dropped,
            "accounting invariant violated");
  DSP_CHECK(acct.events_dropped == 0, "unexpected drops in bench");

  if (snapshot_json != nullptr) {
    serve::Accounting a2;
    st = client.snapshot(a2, *snapshot_json);
    DSP_CHECK(st.ok(), "snapshot failed: " + st.to_string());
  }
  st = client.close(acct);
  DSP_CHECK(st.ok(), "close failed: " + st.to_string());
  server.stop();
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::JsonSink json_out(argc, argv, "ingest_throughput");
  std::puts("INGEST: dsprofd streaming ingest throughput (in-process socket pair)");

  // The paper's first MCF collect run is the workload; replicate it to get
  // a stream long enough to measure steady-state ingest.
  const auto setup = mcfsim::PaperSetup::small();
  const auto exps = mcfsim::collect_paper_experiments(setup);
  experiment::Experiment ex;
  ex.image = exps.ex1.image;
  ex.counters = exps.ex1.counters;
  ex.clock_interval = exps.ex1.clock_interval;
  ex.clock_hz = exps.ex1.clock_hz;
  ex.page_size = exps.ex1.page_size;
  ex.ec_line_size = exps.ex1.ec_line_size;
  ex.allocations = exps.ex1.allocations;
  const size_t kReplicas = 16;
  ex.events.reserve(exps.ex1.events.size() * kReplicas);
  for (size_t i = 0; i < kReplicas; ++i) ex.events.append_store(exps.ex1.events);
  const size_t n_events = ex.events.size();
  std::printf("workload: %zu events (MCF counter pair 1, x%zu)\n", n_events, kReplicas);

  // Correctness on the side: the streamed snapshot must render exactly the
  // offline report of the same events.
  std::string snapshot_json;
  (void)stream_once(ex, 8192, &snapshot_json);
  analyze::Analysis offline(ex);
  const std::string offline_json = analyze::render_json_report(offline);
  DSP_CHECK(snapshot_json == offline_json, "streamed snapshot != offline report");
  std::puts("snapshot == offline er_print -J: ok");

  const int kRuns = 3;
  double best = 1e300;
  for (int i = 0; i < kRuns; ++i) best = std::min(best, stream_once(ex, 8192, nullptr));
  const double eps = static_cast<double>(n_events) / best;
  std::printf("ingest: %.2fM events/s (best of %d, batch 8192)\n", eps / 1e6, kRuns);

  // Machine-speed yardstick: fold the unreplicated run through the seed's
  // std::map fold (the tests/ oracle) and scale the 10M floor by its rate
  // relative to the committed 1.802810M events/s
  // (BENCH_pipeline_throughput.json). The 0.8 allowance absorbs
  // stage-to-stage runner drift and the slight workload difference (one
  // collect run here vs the FIG1 pair there).
  const std::vector<const experiment::Experiment*> one = {&exps.ex1};
  double t_base = 1e300;
  for (int i = 0; i < 2; ++i) {
    const auto t0 = Clock::now();
    oracle::reduce(one);
    t_base = std::min(t_base, seconds_since(t0));
  }
  const double base_eps = static_cast<double>(exps.ex1.events.size()) / t_base;
  const double committed_baseline = 1.802810e6;
  double floor = 10e6 * (base_eps / committed_baseline) * 0.8;
  if (const char* env = std::getenv("DSPROF_BENCH_FLOOR_EVENTS_PER_SEC")) {
    floor = std::atof(env);
  }
  const bool pass = floor <= 0.0 || eps >= floor;
  std::printf("oracle yardstick: %.2fM events/s (committed %.2fM)\n", base_eps / 1e6,
              committed_baseline / 1e6);
  std::printf("floor: %.0f events/s (machine-normalized) -> %s\n", floor,
              pass ? "pass" : "FAIL");

  json_out.emit(
      "{\"bench\":\"ingest_throughput\",\"events\":%zu,\"batch_events\":8192,"
      "\"events_per_sec\":%.0f,\"baseline_events_per_sec\":%.0f,"
      "\"floor_events_per_sec\":%.0f,\"snapshot_matches_offline\":true,"
      "\"pass\":%s}",
      n_events, eps, base_eps, floor, pass ? "true" : "false");
  return pass ? 0 : 1;
}

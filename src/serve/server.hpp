// dsprofd: the profiling daemon (DESIGN.md §3.3).
//
// A Server owns any number of concurrent Sessions, one per connected
// collector client. Each session runs two threads:
//
//   reader   recv bytes -> FrameReader -> decode frames. Control frames
//            (Flush/SnapshotReq/StatsReq/Close) are answered inline;
//            EventBatch/Alloc frames are validated and enqueued.
//   reducer  pops decoded batches from a bounded queue and folds them into
//            an IncrementalReducer (analyze/reduction.hpp) — the *online*
//            aggregates. Because the fold accumulates integer weights, the
//            live aggregates after any batch split are bit-identical to one
//            offline reduction over the same events (the serve subsystem's
//            central invariant; tests/serve_test.cpp proves it property-
//            style, tests/integration_test.cpp on the MCF workload).
//
// Queue-free fast path: when the reducer keeps up — queue empty, reducer
// idle, no before_reduce seam installed — the reader folds a decoded batch
// inline instead of paying the enqueue/wake/dequeue hop. The `reducing`
// flag is held while it folds, so the reducer thread, drain barrier and
// accounting are untouched; under backlog the batch takes the queued path
// with the exact same overload and drop accounting. Folds are still strictly ordered (one fold at
// a time per session), so aggregates remain bit-identical either way.
//
// Overload: the batch queue holds at most `max_queued_batches`. When the
// reducer falls behind, the policy decides:
//
//   DropOldest  (default) evict the oldest queued batch and count its
//               events as dropped. Snapshots stay available under overload
//               and the loss is surfaced: the accounting triple satisfies
//               events_in == events_reduced + events_dropped exactly, and
//               the JSON report grows a "(Dropped)" row (reports.hpp).
//   Block       the reader stops reading; backpressure propagates through
//               the transport to the client's send() (a full pipe/socket),
//               which either waits or times out and retries. No loss.
//
// Snapshot protocol: SnapshotReq first *drains* (waits until the queue is
// empty and the reducer is idle), then renders views from a deep copy of
// the live aggregates via Analysis's precomputed-result constructor. The
// drain barrier means a client that sends batches then SnapshotReq sees
// every event it sent (minus accounted drops) — no torn reads, because the
// copy is taken between folds, never during one.
//
// Disconnect mid-batch: the partial frame buffered in the FrameReader is
// discarded, complete frames already queued are still folded, and the
// session finalizes with the accounting invariant intact.
//
// Fleet view (merged_report / SnapshotReq with kSnapshotMergedFlag): the
// aggregates of every retained session — completed and in-flight — merge
// into one report via analyze::merge_results, byte-identical to an offline
// multi-dir `er_print -J` over the same events. Completed sessions are
// retained up to ServerOptions::retain_sessions; beyond the cap the oldest
// is evicted (aggregates and rendering context freed, accounting counters
// kept, obs serve.sessions.retained / serve.sessions.evicted updated).
// The Stats frame carries, next to the cumulative totals, a rolling
// time-windowed self-profile (stats_window_ms) — deltas and event rate
// over the trailing window, for always-on monitoring.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "analyze/reduction.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"

namespace dsprof::serve {

struct ServerOptions {
  /// Bounded per-session batch queue (the backpressure window).
  size_t max_queued_batches = 64;

  enum class Overload { DropOldest, Block };
  Overload overload = Overload::DropOldest;

  /// Test seam: called by the reducer thread before each fold. Stalling
  /// here makes the queue overflow deterministically (overload tests).
  /// Installing it also sends every batch through the queue (the reader
  /// never folds inline), so tests can compare the two paths.
  std::function<void(u64 session_id)> before_reduce;

  /// Completed sessions retained for the merged fleet view. Beyond the cap
  /// the oldest completed session is *evicted*: its aggregates and
  /// rendering context are freed (the bulk of a session's memory) and it
  /// drops out of merged snapshots; its accounting counters stay, so the
  /// cumulative Stats totals never move backwards. 0 retains nothing.
  size_t retain_sessions = 64;

  /// Rolling window of the self-profile endpoint: the Stats frame reports,
  /// next to the cumulative totals, the deltas and event rate over the
  /// trailing window (sampled at each Stats request and session
  /// finalization). 0 disables the window fields' motion (they stay 0).
  u64 stats_window_ms = 60'000;
};

/// Aggregated introspection counters (the Stats frame payload).
struct ServerStats {
  u64 sessions_total = 0;
  u64 sessions_active = 0;
  u64 frames_in = 0;
  u64 batches_in = 0;
  u64 events_in = 0;
  u64 events_reduced = 0;
  u64 events_dropped = 0;
  u64 snapshots = 0;
  u64 max_queue_depth = 0;
  u64 reduce_calls = 0;
  u64 reduce_ns = 0;  // cumulative wall time inside fold()
  u64 direct_folds = 0;  // batches folded inline by the reader (queue-free)
  u64 sessions_retained = 0;  // completed sessions still mergeable
  u64 sessions_evicted = 0;   // completed sessions freed past the cap

  // Rolling-window self-profile (ServerOptions::stats_window_ms): deltas of
  // the cumulative counters over the trailing window, plus the event rate.
  u64 window_ms = 0;
  u64 window_sessions = 0;
  u64 window_events_in = 0;
  u64 window_events_reduced = 0;
  u64 window_events_dropped = 0;
  u64 window_snapshots = 0;
  double window_events_per_sec = 0.0;

  std::string to_json() const;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adopt a connected transport as a new session (threads start
  /// immediately). Returns the session id the HelloAck will carry.
  u64 add_session(std::unique_ptr<Transport> transport);

  /// Accept loop over any listener (Unix-domain or TCP); returns when the
  /// listener is closed or stop() is called. Each accepted connection
  /// becomes a session.
  void serve(Listener& listener);

  /// The fleet view: merge every retained session's live aggregates —
  /// completed and in-flight — and render one multi-experiment JSON report,
  /// byte-identical to an offline multi-dir `er_print a b … -J` over the
  /// same events (reduction.hpp::merge_results documents why). Takes a
  /// consistent cut: each included session is held quiescent (queue
  /// drained, reducer idle) while its aggregates are copied, so no fold is
  /// ever torn across the merge. `acct` sums the included sessions'
  /// accounting triples. Refused when no session has completed a Hello.
  Status merged_report(std::string& json, Accounting& acct);

  /// Block until session `id` has finalized (client closed/disconnected).
  void wait_session(u64 id);

  /// Block until every session so far has finalized.
  void wait_all();

  /// Shut down every session (transports included) and join all threads.
  void stop();

  ServerStats stats() const;

 private:
  struct Session;

  void reader_main(Session& s);
  void reducer_main(Session& s);
  /// Fold one batch into the session's reducer and account it: the
  /// `serve.reduce.fold_ns` sample, reduced-or-dropped counts (a fold that
  /// throws drops the batch), `direct_folds` for a queue-free fold by the
  /// reader, then clear `reducing` and wake drain waiters. The caller set
  /// `reducing` under qmu and does not hold qmu here.
  void fold_batch(Session& s, const experiment::EventStore& batch, bool direct);
  void finalize(Session& s);
  ServerStats stats_locked() const;
  /// Evict completed sessions beyond retain_sessions; callers hold mu_.
  void evict_locked();

  ServerOptions opt_;
  mutable std::mutex mu_;
  std::condition_variable session_done_cv_;
  std::vector<std::unique_ptr<Session>> sessions_;
  u64 next_session_id_ = 1;
  u64 sessions_evicted_ = 0;  // guarded by mu_
  std::atomic<bool> stopping_{false};

  /// Rolling-window samples of the cumulative counters (guarded by mu_;
  /// mutable so the const stats() endpoint can advance the window).
  struct WindowPoint {
    u64 t_ns = 0;
    u64 sessions_total = 0;
    u64 events_in = 0;
    u64 events_reduced = 0;
    u64 events_dropped = 0;
    u64 snapshots = 0;
  };
  mutable std::deque<WindowPoint> window_;
};

}  // namespace dsprof::serve

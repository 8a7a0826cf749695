// Collector-side client for the dsprofd wire protocol.
//
// A Client wraps a connected Transport and drives the request/response
// conversation: hello() handshakes (image + counter specs), send_batch()
// streams columnar event batches, flush() is a fold barrier, snapshot()
// fetches the rendered JSON report, close() finalizes the session.
//
// Retry policy: only Timeout is transient (status.hpp). Requests that
// expect a reply retry the *receive* with exponential backoff up to
// `max_retries`; the request frame itself is never re-sent (the server
// answers every request exactly once, so re-sending would desynchronize
// the conversation — a lost connection surfaces as Disconnected, which is
// terminal). Batch sends block on transport backpressure by design: under
// the server's Block overload policy that is exactly the flow control the
// paper-scale firehose needs.
#pragma once

#include <memory>
#include <string>

#include "serve/transport.hpp"
#include "serve/wire.hpp"

namespace dsprof::serve {

struct ClientOptions {
  /// Per-recv timeout; total per request ~= sum of backoff'd attempts.
  int recv_timeout_ms = 2000;
  /// Timeout retries per request (exponential backoff between attempts).
  unsigned max_retries = 3;
  /// First backoff sleep; doubles each retry.
  unsigned backoff_ms = 10;
  std::string client_name = "dsprof-client";
};

class Client {
 public:
  explicit Client(std::unique_ptr<Transport> transport, ClientOptions options = {});
  ~Client();

  /// Handshake announcing `ex`'s image and run header (its events are not
  /// sent); fills `session_id` from the HelloAck.
  Status hello(const experiment::Experiment& ex, u64& session_id);

  /// Stream events [begin, end) of `events` as one EventBatch frame,
  /// serialized straight from the source store's columns
  /// (serialize_range_aligned — no intermediate sub-store). Fire-and-forget:
  /// blocks only on transport backpressure.
  Status send_batch(const experiment::EventStore& events, size_t begin, size_t end);
  Status send_batch(const experiment::EventStore& events) {
    return send_batch(events, 0, events.size());
  }

  Status send_allocations(const std::vector<machine::AllocRecord>& allocs);

  /// Barrier: returns once the server has folded everything sent so far.
  Status flush(Accounting& acct);

  /// Fetch the rendered JSON report of the live aggregates (reports.hpp's
  /// render_json_report — byte-identical to offline `er_print -J` over the
  /// same events when nothing was dropped).
  Status snapshot(Accounting& acct, std::string& json_report);

  /// Fetch the merged *fleet* view (SnapshotReq with kSnapshotMergedFlag):
  /// every retained session on the daemon — completed and in-flight —
  /// reduced into one multi-experiment report, byte-identical to an offline
  /// multi-dir `er_print -J` over the same events. Needs no preceding
  /// hello(): a monitoring client can connect, query and close. `acct` sums
  /// the merged sessions' accounting triples.
  Status merged_snapshot(Accounting& acct, std::string& json_report);

  /// Server-wide introspection counters as JSON.
  Status server_stats(std::string& json);

  /// Graceful close; final accounting from the CloseAck.
  Status close(Accounting& acct);

  u64 session_id() const { return session_id_; }

 private:
  /// Receive frames until one of type `want` arrives (retrying timeouts
  /// with backoff); an Error frame from the server is decoded and returned
  /// as its carried status.
  Status recv_expect(FrameType want, Frame& out);

  std::unique_ptr<Transport> transport_;
  ClientOptions opt_;
  FrameReader frames_;
  u64 session_id_ = 0;
  bool closed_ = false;
};

/// Slice an experiment's events into `batch_events`-sized EventBatch frames
/// and stream the whole run (hello, allocations, batches, flush). Returns
/// the accounting at the final flush barrier. This is the dsprof_send path
/// and the replay harness for tests/bench.
Status stream_experiment(Client& c, const experiment::Experiment& ex, size_t batch_events,
                         Accounting& acct);

}  // namespace dsprof::serve

#include "serve/server.hpp"

#include <cstdio>

#include "analyze/analysis.hpp"
#include "analyze/reports.hpp"
#include "obs/obs.hpp"

namespace dsprof::serve {

namespace {

using obs::now_ns;

// Self-observability (src/obs/): per-session reader/reducer queue health.
// Counters tally the same quantities the Accounting triple carries, so the
// obs snapshot and the Stats frame can be cross-checked; the histograms add
// what a single triple cannot show — queue-depth and wait-time
// distributions under load.
const obs::Counter& c_batches_in() {
  static const obs::Counter c = obs::counter("serve.batches.in");
  return c;
}
const obs::Counter& c_events_in() {
  static const obs::Counter c = obs::counter("serve.events.in");
  return c;
}
const obs::Counter& c_events_dropped() {
  static const obs::Counter c = obs::counter("serve.events.dropped");
  return c;
}
const obs::Counter& c_snapshots() {
  static const obs::Counter c = obs::counter("serve.snapshots");
  return c;
}
const obs::Histogram& h_queue_depth() {
  static const obs::Histogram h = obs::histogram("serve.queue.depth");
  return h;
}
const obs::Histogram& h_queue_wait_ns() {
  static const obs::Histogram h = obs::histogram("serve.queue.wait_ns");
  return h;
}
const obs::Histogram& h_reduce_ns() {
  static const obs::Histogram h = obs::histogram("serve.reduce.fold_ns");
  return h;
}
const obs::Counter& c_direct_folds() {
  static const obs::Counter c = obs::counter("serve.direct_folds");
  return c;
}
const obs::Counter& c_merged_snapshots() {
  static const obs::Counter c = obs::counter("serve.snapshots.merged");
  return c;
}
const obs::Counter& c_sessions_evicted() {
  static const obs::Counter c = obs::counter("serve.sessions.evicted");
  return c;
}
const obs::Gauge& g_sessions_retained() {
  static const obs::Gauge g = obs::gauge("serve.sessions.retained");
  return g;
}
const obs::SpanName& fold_span() {
  // Shared by the reducer thread and the reader's queue-free path: either
  // way a fold is a "serve.fold" span, so span-based gates see one fold per
  // batch regardless of which thread ran it.
  static const obs::SpanName s = obs::span_name("serve.fold");
  return s;
}

Status send_frame(Transport& t, FrameType type, const std::vector<u8>& payload) {
  const std::vector<u8> bytes = encode_frame(type, payload);
  return t.send(bytes.data(), bytes.size());
}

}  // namespace

std::string ServerStats::to_json() const {
  std::string s = "{";
  const auto field = [&s](const char* k, u64 v, bool last = false) {
    s += std::string("\"") + k + "\":" + std::to_string(v) + (last ? "" : ",");
  };
  field("sessions_total", sessions_total);
  field("sessions_active", sessions_active);
  field("frames_in", frames_in);
  field("batches_in", batches_in);
  field("events_in", events_in);
  field("events_reduced", events_reduced);
  field("events_dropped", events_dropped);
  field("snapshots", snapshots);
  field("max_queue_depth", max_queue_depth);
  field("reduce_calls", reduce_calls);
  field("reduce_ns", reduce_ns);
  field("direct_folds", direct_folds);
  field("sessions_retained", sessions_retained);
  field("sessions_evicted", sessions_evicted);
  // Rolling-window self-profile: what the daemon did over the trailing
  // stats_window_ms, so an always-on monitor reads current load without
  // differencing cumulative counters itself.
  char wbuf[256];
  std::snprintf(wbuf, sizeof wbuf,
                "\"window\":{\"ms\":%llu,\"sessions\":%llu,\"events_in\":%llu,"
                "\"events_reduced\":%llu,\"events_dropped\":%llu,\"snapshots\":%llu,"
                "\"events_per_sec\":%.1f},",
                static_cast<unsigned long long>(window_ms),
                static_cast<unsigned long long>(window_sessions),
                static_cast<unsigned long long>(window_events_in),
                static_cast<unsigned long long>(window_events_reduced),
                static_cast<unsigned long long>(window_events_dropped),
                static_cast<unsigned long long>(window_snapshots),
                window_events_per_sec);
  s += wbuf;
  // Extended Stats frame: the daemon's own obs snapshot rides along, so a
  // remote `dsprof_send --stats` sees queue/latency distributions, not just
  // the aggregate triple.
  s += "\"obs\":" + obs::snapshot().to_json();
  s += "}";
  return s;
}

struct Server::Session {
  u64 id = 0;
  std::unique_ptr<Transport> transport;
  FrameReader frames;

  // Handshake result: the rendering context a snapshot Analysis needs.
  // hello_done is written once by the reader under qmu (after ex and the
  // reducer are fully built) and read under qmu by merged_report, which
  // makes the context fields immutable-after-publish for cross-thread
  // readers; ex.allocations — the one context field that grows mid-session
  // — is appended under qmu too.
  bool hello_done = false;
  bool closing = false;
  bool evicted = false;  // guarded by Server::mu_ (retention)
  experiment::Experiment ex;  // events stay empty; batches live in the queue
  std::unique_ptr<analyze::IncrementalReducer> reducer;

  // Bounded batch queue, reader -> reducer.
  std::mutex qmu;
  std::condition_variable qcv;       // reducer waits: batch available or stop
  std::condition_variable space_cv;  // reader waits under Block policy
  std::condition_variable drain_cv;  // reader waits: queue empty + reducer idle
  /// Queued batch plus its enqueue timestamp (queue wait accounting).
  struct QueuedBatch {
    experiment::EventStore store;
    u64 enq_ns = 0;
  };
  std::deque<QueuedBatch> queue;
  bool reducing = false;
  bool stop = false;

  // Accounting (guarded by qmu; events_reduced mirrors the reducer's fold
  // counter so stats can be read while a fold is in flight). The invariant —
  // after any drain, events_in == events_reduced + events_dropped — holds
  // because every enqueued event is eventually either folded or
  // evicted-and-counted.
  u64 events_in = 0;
  u64 events_reduced = 0;
  u64 events_dropped = 0;
  u64 batches_in = 0;
  u64 frames_in = 0;
  u64 snapshots = 0;
  u64 max_queue_depth = 0;
  u64 reduce_calls = 0;
  u64 reduce_ns = 0;
  u64 direct_folds = 0;

  bool finalized = false;
  std::thread reader_thread;
  std::thread reducer_thread;

  /// Wait until every queued batch has been folded (the snapshot barrier).
  void drain() {
    std::unique_lock<std::mutex> lock(qmu);
    drain_cv.wait(lock, [&] { return queue.empty() && !reducing; });
  }

  Accounting accounting() {
    std::lock_guard<std::mutex> lock(qmu);
    return {events_in, events_reduced, events_dropped};
  }
};

Server::Server(ServerOptions options) : opt_(options) {}

Server::~Server() { stop(); }

namespace {
const obs::Gauge& g_sessions_active() {
  static const obs::Gauge g = obs::gauge("serve.sessions.active");
  return g;
}
}  // namespace

u64 Server::add_session(std::unique_ptr<Transport> transport) {
  std::lock_guard<std::mutex> lock(mu_);
  auto s = std::make_unique<Session>();
  s->id = next_session_id_++;
  s->transport = std::move(transport);
  Session& ref = *s;
  sessions_.push_back(std::move(s));
  i64 active = 0;
  for (const auto& sp : sessions_) active += sp->finalized ? 0 : 1;
  g_sessions_active().set(active);
  ref.reducer_thread = std::thread([this, &ref] { reducer_main(ref); });
  ref.reader_thread = std::thread([this, &ref] { reader_main(ref); });
  return ref.id;
}

void Server::serve(Listener& listener) {
  while (!stopping_.load()) {
    Status st;
    auto t = listener.accept(st, /*timeout_ms=*/200);
    if (t) {
      add_session(std::move(t));
      continue;
    }
    if (st.code == StatusCode::Timeout) continue;  // poll the stop flag
    break;  // listener closed or failed
  }
}

void Server::reader_main(Session& s) {
  std::vector<u8> buf(64 * 1024);

  const auto handle_frame = [&](Frame& f) -> Status {
    switch (f.type) {
      case FrameType::Hello: {
        if (s.hello_done)
          return Status::make(StatusCode::Refused, "duplicate Hello");
        HelloPayload h;
        if (Status st = decode_hello(f.payload, h); !st.ok()) return st;
        s.ex.log = "dsprofd streamed session from '" + h.client_name + "'";
        s.ex.image = std::move(h.image);
        s.ex.counters = h.counters;
        s.ex.clock_interval = h.clock_interval;
        s.ex.clock_hz = h.clock_hz;
        s.ex.page_size = h.page_size;
        s.ex.ec_line_size = h.ec_line_size;
        s.ex.total_cycles = h.total_cycles;
        s.ex.total_instructions = h.total_instructions;
        s.ex.slices = h.slices;
        s.reducer = std::make_unique<analyze::IncrementalReducer>(s.ex.image.symtab,
                                                                  s.ex.counters);
        {
          // Publish: merged_report reads hello_done under qmu and may then
          // touch ex and the reducer from another thread.
          std::lock_guard<std::mutex> lock(s.qmu);
          s.hello_done = true;
        }
        return send_frame(*s.transport, FrameType::HelloAck, encode_hello_ack(s.id));
      }
      case FrameType::EventBatch: {
        if (!s.hello_done)
          return Status::make(StatusCode::Refused, "EventBatch before Hello");
        experiment::EventStore batch;
        if (Status st = decode_event_batch(std::move(f.payload), batch); !st.ok()) return st;
        if (opt_.max_batch_events != 0 && batch.size() > opt_.max_batch_events)
          return Status::make(StatusCode::Refused,
                              "batch of " + std::to_string(batch.size()) +
                                  " events exceeds per-batch cap");
        const u64 n = batch.size();
        std::unique_lock<std::mutex> lock(s.qmu);
        // Queue-free fast path: the reducer is idle and nothing is queued,
        // so fold right here in the reader thread and skip the queue hop
        // entirely. Holding `reducing` keeps the drain barrier honest; the
        // reader is the only enqueuer, so the queue stays empty until the
        // fold finishes and fold order is preserved. The before_reduce test
        // seam forces the queued path — overload tests rely on stalling the
        // reducer thread while the reader keeps enqueuing.
        if (!opt_.before_reduce && s.queue.empty() && !s.reducing) {
          s.events_in += n;
          s.batches_in += 1;
          s.reducing = true;
          lock.unlock();
          c_events_in().add(n);
          c_batches_in().add();
          const u64 t0 = now_ns();
          u64 folded = n;
          {
            const obs::ScopedSpan span(fold_span());
            try {
              s.reducer->fold(batch, 0, batch.size());
            } catch (const Error&) {
              // Same defensive stance as the reducer thread: a fold
              // invariant accounts the batch as dropped, never kills the
              // daemon (fold bumps its counter only on success).
              folded = 0;
            }
          }
          const u64 t1 = now_ns();
          h_reduce_ns().record(t1 - t0);
          lock.lock();
          s.reducing = false;
          if (folded != 0) s.events_reduced += folded;
          else s.events_dropped += n;
          s.reduce_calls += 1;
          s.reduce_ns += t1 - t0;
          s.direct_folds += 1;
          c_direct_folds().add();
          if (s.queue.empty()) s.drain_cv.notify_all();
          return {};
        }
        if (s.queue.size() >= opt_.max_queued_batches) {
          if (opt_.overload == ServerOptions::Overload::DropOldest) {
            // Evict the oldest queued batch; its events are accounted as
            // dropped, which the snapshot surfaces as "(Dropped)".
            s.events_dropped += s.queue.front().store.size();
            c_events_dropped().add(s.queue.front().store.size());
            s.queue.pop_front();
          } else {
            // Block: stop reading until the reducer makes room. The pipe /
            // socket buffer fills behind us — that is the backpressure the
            // client feels.
            s.space_cv.wait(lock, [&] {
              return s.stop || s.queue.size() < opt_.max_queued_batches;
            });
            if (s.stop) return Status::make(StatusCode::Disconnected, "session stopping");
          }
        }
        s.events_in += n;
        s.batches_in += 1;
        s.queue.push_back(Session::QueuedBatch{std::move(batch), now_ns()});
        s.max_queue_depth = std::max<u64>(s.max_queue_depth, s.queue.size());
        c_events_in().add(n);
        c_batches_in().add();
        h_queue_depth().record(s.queue.size());
        s.qcv.notify_one();
        return {};
      }
      case FrameType::Alloc: {
        if (!s.hello_done)
          return Status::make(StatusCode::Refused, "Alloc before Hello");
        std::vector<machine::AllocRecord> allocs;
        if (Status st = decode_allocs(f.payload, allocs); !st.ok()) return st;
        {
          // merged_report reads the allocation log from other threads.
          std::lock_guard<std::mutex> lock(s.qmu);
          s.ex.allocations.insert(s.ex.allocations.end(), allocs.begin(), allocs.end());
        }
        return {};
      }
      case FrameType::Flush: {
        if (!s.hello_done) return Status::make(StatusCode::Refused, "Flush before Hello");
        s.drain();
        return send_frame(*s.transport, FrameType::FlushAck,
                          encode_flush_ack(s.accounting()));
      }
      case FrameType::SnapshotReq: {
        if ((f.flags & kSnapshotMergedFlag) != 0) {
          // Fleet view: merge every retained session (no Hello required —
          // a monitoring client can connect just to ask).
          std::string json;
          Accounting macct;
          if (Status st = merged_report(json, macct); !st.ok()) return st;
          {
            std::lock_guard<std::mutex> lock(s.qmu);
            s.snapshots += 1;
          }
          c_snapshots().add();
          c_merged_snapshots().add();
          return send_frame(*s.transport, FrameType::Snapshot, encode_snapshot(macct, json));
        }
        if (!s.hello_done)
          return Status::make(StatusCode::Refused, "SnapshotReq before Hello");
        s.drain();
        const Accounting acct = s.accounting();
        // Deep-copy the live aggregates between folds and render through the
        // same Analysis + render_json_report path `er_print -J` uses: the
        // snapshot is byte-identical to an offline report over these events.
        static const obs::SpanName kSnapshotSpan = obs::span_name("serve.snapshot");
        const obs::ScopedSpan span(kSnapshotSpan);
        analyze::Analysis a(s.ex, s.reducer->snapshot());
        const std::string json = analyze::render_json_report(a, acct.events_dropped);
        {
          std::lock_guard<std::mutex> lock(s.qmu);
          s.snapshots += 1;
        }
        c_snapshots().add();
        return send_frame(*s.transport, FrameType::Snapshot, encode_snapshot(acct, json));
      }
      case FrameType::StatsReq:
        return send_frame(*s.transport, FrameType::Stats, encode_stats(stats().to_json()));
      case FrameType::Close: {
        if (s.hello_done) s.drain();  // final accounting must be complete
        s.closing = true;
        return send_frame(*s.transport, FrameType::CloseAck,
                          encode_flush_ack(s.accounting()));
      }
      default:
        return Status::make(StatusCode::Refused,
                            std::string("unexpected frame type ") +
                                frame_type_name(f.type));
    }
  };

  for (;;) {
    size_t got = 0;
    Status st = s.transport->recv_some(buf.data(), buf.size(), got, /*timeout_ms=*/-1);
    if (!st.ok()) break;  // disconnect / shutdown: finalize below
    st = s.frames.feed(buf.data(), got);
    {
      std::lock_guard<std::mutex> lock(s.qmu);
      s.frames_in = s.frames.frames_decoded();
    }
    bool fatal = false;
    if (!st.ok()) {
      // Framing corruption: tell the client why, then drop the session.
      (void)send_frame(*s.transport, FrameType::Error, encode_error(st));
      fatal = true;
    } else {
      Frame f;
      while (s.frames.next_frame(f)) {
        try {
          st = handle_frame(f);
        } catch (const Error& e) {
          // Analyzer invariants tripped by hostile payloads surface as a
          // clean per-session error, never a daemon crash.
          st = Status::make(StatusCode::Malformed, e.what());
        }
        if (!st.ok()) {
          if (st.code != StatusCode::Disconnected)
            (void)send_frame(*s.transport, FrameType::Error, encode_error(st));
          fatal = true;
          break;
        }
        if (s.closing) break;
      }
    }
    if (fatal || s.closing) break;
  }

  // A partial frame still buffered here is the mid-batch disconnect case:
  // those bytes never decoded into events, so they are simply discarded —
  // they appear in no counter, keeping the accounting exact.
  finalize(s);
}

void Server::reducer_main(Session& s) {
  for (;;) {
    experiment::EventStore batch;
    u64 enq_ns = 0;
    {
      std::unique_lock<std::mutex> lock(s.qmu);
      s.qcv.wait(lock, [&] { return s.stop || !s.queue.empty(); });
      if (s.queue.empty()) break;  // stop requested and fully drained
      batch = std::move(s.queue.front().store);
      enq_ns = s.queue.front().enq_ns;
      s.queue.pop_front();
      s.reducing = true;
      s.space_cv.notify_one();
    }
    if (opt_.before_reduce) opt_.before_reduce(s.id);
    const u64 t0 = now_ns();
    h_queue_wait_ns().record(t0 - enq_ns);
    const obs::ScopedSpan span(fold_span());
    u64 folded = batch.size();
    try {
      s.reducer->fold(batch, 0, batch.size());
    } catch (const Error&) {
      // Defensive: EventStore::deserialize already validated the batch, but
      // a long-lived daemon must not die on a fold invariant. The batch is
      // accounted as dropped (fold bumps its counter only on success), so
      // events_in == events_reduced + events_dropped still holds.
      folded = 0;
    }
    const u64 t1 = now_ns();
    h_reduce_ns().record(t1 - t0);
    {
      std::lock_guard<std::mutex> lock(s.qmu);
      s.reducing = false;
      if (folded != 0) s.events_reduced += folded;
      else s.events_dropped += batch.size();
      s.reduce_calls += 1;
      s.reduce_ns += t1 - t0;
      if (s.queue.empty()) s.drain_cv.notify_all();
    }
  }
  std::lock_guard<std::mutex> lock(s.qmu);
  s.drain_cv.notify_all();
}

void Server::finalize(Session& s) {
  {
    std::lock_guard<std::mutex> lock(s.qmu);
    s.stop = true;
    s.qcv.notify_all();
    s.space_cv.notify_all();
  }
  s.reducer_thread.join();  // drains the queue first (fold-before-exit)
  s.transport->shutdown();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.finalized = true;
    evict_locked();
    i64 active = 0;
    for (const auto& sp : sessions_) active += sp->finalized ? 0 : 1;
    g_sessions_active().set(active);
    // A completed session is a load event worth a window sample even when
    // nobody is polling Stats just now.
    (void)stats_locked();
  }
  session_done_cv_.notify_all();
}

void Server::evict_locked() {
  size_t retained = 0;
  for (const auto& sp : sessions_)
    if (sp->finalized && !sp->evicted) ++retained;
  for (auto& sp : sessions_) {
    if (retained <= opt_.retain_sessions) break;
    if (!sp->finalized || sp->evicted) continue;
    // Oldest first (sessions_ is in id order). Free the aggregates and the
    // rendering context — the bulk of a completed session's footprint; the
    // accounting counters stay, so cumulative stats never move backwards.
    // The session's threads are done (finalized) and merged_report skips
    // evicted sessions under mu_, so nobody can be reading these.
    sp->evicted = true;
    sp->reducer.reset();
    sp->ex = experiment::Experiment();
    ++sessions_evicted_;
    c_sessions_evicted().add();
    --retained;
  }
  g_sessions_retained().set(static_cast<i64>(retained));
}

Status Server::merged_report(std::string& json, Accounting& acct) {
  // One consistent cut across the fleet: hold mu_ (freezing admission and
  // retention) plus every included session's queue lock, each session
  // drained to a fold boundary, for the whole copy-merge-render. Lock
  // order is mu_ then qmu in session-id order; no thread acquires a second
  // lock while holding a qmu, so the ordering is acyclic. Draining a
  // session waits on its reducer thread, which needs only its own qmu —
  // released by the wait — so progress is independent of the locks already
  // held here.
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<Session*> included;
  std::vector<std::unique_lock<std::mutex>> qlocks;
  for (auto& sp : sessions_) {
    if (sp->evicted) continue;
    std::unique_lock<std::mutex> ql(sp->qmu);
    if (!sp->hello_done) continue;
    sp->drain_cv.wait(ql, [&] { return sp->queue.empty() && !sp->reducing; });
    included.push_back(sp.get());
    qlocks.push_back(std::move(ql));
  }
  if (included.empty())
    return Status::make(StatusCode::Refused, "no sessions to merge");

  static const obs::SpanName kMergedSpan = obs::span_name("serve.snapshot.merged");
  const obs::ScopedSpan span(kMergedSpan);
  std::vector<analyze::ReductionResult> parts;
  std::vector<const experiment::Experiment*> exps;
  parts.reserve(included.size());
  exps.reserve(included.size());
  acct = {};
  for (Session* s : included) {
    parts.push_back(s->reducer->snapshot());
    exps.push_back(&s->ex);
    acct.events_in += s->events_in;
    acct.events_reduced += s->events_reduced;
    acct.events_dropped += s->events_dropped;
  }
  std::vector<const analyze::ReductionResult*> part_ptrs;
  part_ptrs.reserve(parts.size());
  for (const auto& p : parts) part_ptrs.push_back(&p);
  // merge_results + the multi-experiment precomputed Analysis render the
  // exact bytes an offline multi-dir `er_print -J` over the same events
  // would (the cross-session extension of the bit-identity invariant).
  analyze::Analysis a(exps, analyze::merge_results(part_ptrs));
  json = analyze::render_json_report(a, acct.events_dropped);
  return {};
}

void Server::wait_session(u64 id) {
  std::unique_lock<std::mutex> lock(mu_);
  session_done_cv_.wait(lock, [&] {
    for (const auto& s : sessions_)
      if (s->id == id) return s->finalized;
    return true;  // unknown id: nothing to wait for
  });
}

void Server::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  session_done_cv_.wait(lock, [&] {
    for (const auto& s : sessions_)
      if (!s->finalized) return false;
    return true;
  });
}

void Server::stop() {
  stopping_.store(true);
  std::vector<Session*> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : sessions_) open.push_back(s.get());
  }
  for (Session* s : open) s->transport->shutdown();  // unblock readers
  for (Session* s : open) {
    if (s->reader_thread.joinable()) s->reader_thread.join();
    // finalize() already joined the reducer from the reader thread.
  }
}

size_t Server::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& s : sessions_)
    if (!s->finalized) ++n;
  return n;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_locked();
}

ServerStats Server::stats_locked() const {
  ServerStats st;
  st.sessions_total = sessions_.size();
  for (const auto& s : sessions_) {
    if (!s->finalized) ++st.sessions_active;
    std::lock_guard<std::mutex> lock(s->qmu);
    st.frames_in += s->frames_in;
    st.batches_in += s->batches_in;
    st.events_in += s->events_in;
    st.events_reduced += s->events_reduced;
    st.events_dropped += s->events_dropped;
    st.snapshots += s->snapshots;
    st.max_queue_depth = std::max(st.max_queue_depth, s->max_queue_depth);
    st.reduce_calls += s->reduce_calls;
    st.reduce_ns += s->reduce_ns;
    st.direct_folds += s->direct_folds;
  }
  st.sessions_evicted = sessions_evicted_;
  for (const auto& s : sessions_)
    if (s->finalized && !s->evicted) ++st.sessions_retained;

  // Advance the rolling window: sample the cumulative counters now, prune
  // points that fell out of the trailing window (keeping the newest such
  // point as the baseline so the delta spans the whole window), and report
  // deltas against the baseline.
  st.window_ms = opt_.stats_window_ms;
  const u64 now = now_ns();
  window_.push_back(WindowPoint{now, st.sessions_total, st.events_in, st.events_reduced,
                                st.events_dropped, st.snapshots});
  const u64 span_ns = opt_.stats_window_ms * 1'000'000ull;
  while (window_.size() >= 2 && now - window_[1].t_ns >= span_ns) window_.pop_front();
  const WindowPoint& base = window_.front();
  st.window_sessions = st.sessions_total - base.sessions_total;
  st.window_events_in = st.events_in - base.events_in;
  st.window_events_reduced = st.events_reduced - base.events_reduced;
  st.window_events_dropped = st.events_dropped - base.events_dropped;
  st.window_snapshots = st.snapshots - base.snapshots;
  const double secs = static_cast<double>(now - base.t_ns) / 1e9;
  st.window_events_per_sec =
      secs > 0 ? static_cast<double>(st.window_events_in) / secs : 0.0;
  return st;
}

}  // namespace dsprof::serve

#include "serve/client.hpp"

#include <chrono>
#include <thread>

namespace dsprof::serve {

Client::Client(std::unique_ptr<Transport> transport, ClientOptions options)
    : transport_(std::move(transport)), opt_(options) {}

Client::~Client() {
  if (transport_) transport_->shutdown();
}

Status Client::recv_expect(FrameType want, Frame& out) {
  std::vector<u8> buf(64 * 1024);
  unsigned attempts = 0;
  unsigned backoff = opt_.backoff_ms;
  for (;;) {
    Frame f;
    while (frames_.next_frame(f)) {
      if (f.type == FrameType::Error) {
        Status carried;
        if (Status st = decode_error(f.payload, carried); !st.ok()) return st;
        return carried;
      }
      if (f.type == want) {
        out = std::move(f);
        return {};
      }
      // Frames of other types in a strictly request/response conversation
      // mean the two sides fell out of step.
      return Status::make(StatusCode::Refused,
                          std::string("expected ") + frame_type_name(want) + ", got " +
                              frame_type_name(f.type));
    }
    size_t got = 0;
    Status st = transport_->recv_some(buf.data(), buf.size(), got, opt_.recv_timeout_ms);
    if (st.code == StatusCode::Timeout) {
      // The one transient failure: wait out a slow reducer with backoff.
      if (attempts++ >= opt_.max_retries) return st;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff *= 2;
      continue;
    }
    if (!st.ok()) return st;
    if (Status fst = frames_.feed(buf.data(), got); !fst.ok()) return fst;
  }
}

Status Client::hello(const experiment::Experiment& ex, u64& session_id) {
  const std::vector<u8> bytes =
      encode_frame(FrameType::Hello, encode_hello(opt_.client_name, ex));
  if (Status st = transport_->send(bytes.data(), bytes.size()); !st.ok()) return st;
  Frame ack;
  if (Status st = recv_expect(FrameType::HelloAck, ack); !st.ok()) return st;
  if (Status st = decode_hello_ack(ack.payload, session_id); !st.ok()) return st;
  session_id_ = session_id;
  return {};
}

Status Client::send_batch(const experiment::EventStore& events, size_t begin, size_t end) {
  const std::vector<u8> bytes =
      encode_frame(FrameType::EventBatch, encode_event_batch(events, begin, end));
  return transport_->send(bytes.data(), bytes.size());
}

Status Client::send_allocations(const std::vector<machine::AllocRecord>& allocs) {
  const std::vector<u8> bytes = encode_frame(FrameType::Alloc, encode_allocs(allocs));
  return transport_->send(bytes.data(), bytes.size());
}

Status Client::flush(Accounting& acct) {
  const std::vector<u8> bytes = encode_frame(FrameType::Flush, {});
  if (Status st = transport_->send(bytes.data(), bytes.size()); !st.ok()) return st;
  Frame f;
  if (Status st = recv_expect(FrameType::FlushAck, f); !st.ok()) return st;
  return decode_flush_ack(f.payload, acct);
}

Status Client::snapshot(Accounting& acct, std::string& json_report) {
  const std::vector<u8> bytes = encode_frame(FrameType::SnapshotReq, {});
  if (Status st = transport_->send(bytes.data(), bytes.size()); !st.ok()) return st;
  Frame f;
  if (Status st = recv_expect(FrameType::Snapshot, f); !st.ok()) return st;
  return decode_snapshot(f.payload, acct, json_report);
}

Status Client::merged_snapshot(Accounting& acct, std::string& json_report) {
  const std::vector<u8> bytes =
      encode_frame(FrameType::SnapshotReq, {}, kSnapshotMergedFlag);
  if (Status st = transport_->send(bytes.data(), bytes.size()); !st.ok()) return st;
  Frame f;
  if (Status st = recv_expect(FrameType::Snapshot, f); !st.ok()) return st;
  return decode_snapshot(f.payload, acct, json_report);
}

Status Client::server_stats(std::string& json) {
  const std::vector<u8> bytes = encode_frame(FrameType::StatsReq, {});
  if (Status st = transport_->send(bytes.data(), bytes.size()); !st.ok()) return st;
  Frame f;
  if (Status st = recv_expect(FrameType::Stats, f); !st.ok()) return st;
  return decode_stats(f.payload, json);
}

Status Client::close(Accounting& acct) {
  if (closed_) return {};
  const std::vector<u8> bytes = encode_frame(FrameType::Close, {});
  if (Status st = transport_->send(bytes.data(), bytes.size()); !st.ok()) return st;
  Frame f;
  if (Status st = recv_expect(FrameType::CloseAck, f); !st.ok()) return st;
  closed_ = true;
  return decode_flush_ack(f.payload, acct);
}

Status stream_experiment(Client& c, const experiment::Experiment& ex, size_t batch_events,
                         Accounting& acct) {
  if (batch_events == 0) batch_events = 8192;
  u64 session_id = 0;
  if (Status st = c.hello(ex, session_id); !st.ok()) return st;
  if (!ex.allocations.empty()) {
    if (Status st = c.send_allocations(ex.allocations); !st.ok()) return st;
  }
  for (size_t begin = 0; begin < ex.events.size(); begin += batch_events) {
    const size_t end = std::min(ex.events.size(), begin + batch_events);
    if (Status st = c.send_batch(ex.events, begin, end); !st.ok()) return st;
  }
  return c.flush(acct);
}

}  // namespace dsprof::serve

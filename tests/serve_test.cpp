// The serve subsystem (DESIGN.md §3.3): wire format hardening, transports,
// the dsprofd Server/Client pair, the overload policies with exact drop
// accounting, and — centrally — the online-vs-offline bit-identity
// invariant: a snapshot of a streamed session renders byte-for-byte the
// report an offline Analysis over the same events produces, for ANY
// batch split (proved here property-style over fuzz-generated streams and
// random splits; tests/integration_test.cpp proves it on the paper's MCF
// workloads).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <random>
#include <thread>

#include "analyze/reports.hpp"
#include "dsl_fixtures.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "temp_dir.hpp"

namespace dsprof::serve {
namespace {

using experiment::EventStore;
using experiment::Experiment;

// --- shared fixtures --------------------------------------------------------

machine::CpuConfig small_machine() {
  machine::CpuConfig cfg;
  cfg.hierarchy.dcache = {4 * 1024, 4, 32, false};
  cfg.hierarchy.ecache = {32 * 1024, 2, 512, true};
  cfg.hierarchy.dtlb = {8, 2, 8 * 1024};
  return cfg;
}

/// One collected chase experiment shared by every test in this file.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto mod = testfix::make_chase_module(1000, 4, 4096);
    image_ = new sym::Image(scc::compile(*mod));
    ex_ = new Experiment(
        testfix::quick_collect(*image_, "+ecstall,1009,+ecrm,97", "hi", small_machine()));
  }
  static void TearDownTestSuite() {
    delete ex_;
    delete image_;
  }
  static sym::Image* image_;
  static Experiment* ex_;
};

sym::Image* ServeTest::image_ = nullptr;
Experiment* ServeTest::ex_ = nullptr;

std::string offline_report(const Experiment& ex) {
  analyze::Analysis a(ex);
  return analyze::render_json_report(a);
}

/// Stream `ex` into a fresh in-process server with the given batch size and
/// return the snapshot JSON (asserting clean accounting on the way).
std::string stream_snapshot(const Experiment& ex, size_t batch_events,
                            ServerOptions sopt = {}) {
  Server server(sopt);
  auto [client_end, server_end] = make_pipe_pair();
  server.add_session(std::move(server_end));
  Client client(std::move(client_end));

  Accounting acct;
  Status st = stream_experiment(client, ex, batch_events, acct);
  EXPECT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(acct.events_in, ex.events.size());
  EXPECT_EQ(acct.events_in, acct.events_reduced + acct.events_dropped);

  std::string json;
  st = client.snapshot(acct, json);
  EXPECT_TRUE(st.ok()) << st.to_string();
  st = client.close(acct);
  EXPECT_TRUE(st.ok()) << st.to_string();
  server.stop();
  return json;
}

// --- wire format ------------------------------------------------------------

TEST(Wire, FrameRoundtripByteAtATime) {
  const std::vector<u8> payload = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<u8> bytes = encode_frame(FrameType::EventBatch, payload, /*flags=*/7);
  FrameReader r;
  Frame f;
  // Worst-case chunking: one byte per feed. The frame must assemble
  // exactly once, intact.
  for (size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_TRUE(r.feed(&bytes[i], 1).ok());
    if (i + 1 < bytes.size()) {
      ASSERT_FALSE(r.next_frame(f));
    }
  }
  ASSERT_TRUE(r.next_frame(f));
  EXPECT_EQ(f.type, FrameType::EventBatch);
  EXPECT_EQ(f.flags, 7);
  EXPECT_EQ(f.payload, payload);
  EXPECT_FALSE(r.mid_frame());
  EXPECT_FALSE(r.next_frame(f));
}

TEST(Wire, MultipleFramesInOneFeed) {
  std::vector<u8> bytes = encode_frame(FrameType::Flush, {});
  const std::vector<u8> second = encode_frame(FrameType::Close, {0xAB});
  bytes.insert(bytes.end(), second.begin(), second.end());
  FrameReader r;
  ASSERT_TRUE(r.feed(bytes.data(), bytes.size()).ok());
  Frame f;
  ASSERT_TRUE(r.next_frame(f));
  EXPECT_EQ(f.type, FrameType::Flush);
  ASSERT_TRUE(r.next_frame(f));
  EXPECT_EQ(f.type, FrameType::Close);
  EXPECT_EQ(f.payload.size(), 1u);
}

TEST(Wire, BadMagicPoisonsTheStream) {
  std::vector<u8> bytes = encode_frame(FrameType::Flush, {});
  bytes[0] ^= 0xFF;
  FrameReader r;
  const Status st = r.feed(bytes.data(), bytes.size());
  EXPECT_EQ(st.code, StatusCode::BadMagic);
  // Poisoned: even valid bytes are rejected afterwards (no resync).
  const std::vector<u8> good = encode_frame(FrameType::Flush, {});
  EXPECT_EQ(r.feed(good.data(), good.size()).code, StatusCode::Malformed);
}

TEST(Wire, BadVersionRejected) {
  std::vector<u8> bytes = encode_frame(FrameType::Flush, {});
  bytes[4] = kWireVersion + 1;
  FrameReader r;
  EXPECT_EQ(r.feed(bytes.data(), bytes.size()).code, StatusCode::BadVersion);
}

TEST(Wire, OversizedLengthPrefixRejected) {
  std::vector<u8> bytes = encode_frame(FrameType::EventBatch, {1, 2, 3});
  // Forge a hostile length prefix far beyond the cap: the reader must
  // refuse from the header alone, not try to buffer 4 GB.
  const u32 hostile = 0xFFFFFFFF;
  std::memcpy(bytes.data() + 8, &hostile, 4);
  FrameReader r;
  EXPECT_EQ(r.feed(bytes.data(), bytes.size()).code, StatusCode::FrameTooLarge);
}

TEST(Wire, TruncatedFrameIsMidFrameNotError) {
  const std::vector<u8> bytes = encode_frame(FrameType::EventBatch, {1, 2, 3, 4});
  FrameReader r;
  ASSERT_TRUE(r.feed(bytes.data(), bytes.size() - 2).ok());
  Frame f;
  EXPECT_FALSE(r.next_frame(f));
  // This is the disconnect-mid-batch shape: bytes buffered, no frame —
  // the session discards them on finalize.
  EXPECT_TRUE(r.mid_frame());
}

TEST(Wire, TruncatedPayloadDecodesToMalformed) {
  EventStore ev;
  const u64 stack[2] = {0x1000, 0x2000};
  ev.append(0, machine::HwEvent::EC_stall_cycles, 97, 0x4000, true, 0x3ffc, true, 0x8000,
            stack, 2, 1);
  std::vector<u8> payload = encode_event_batch(ev);
  payload.resize(payload.size() / 2);  // truncate mid-column
  EventStore out;
  EXPECT_EQ(decode_event_batch(std::move(payload), out).code, StatusCode::Malformed);

  std::string name;
  Experiment hello;
  EXPECT_EQ(decode_hello({1, 2, 3}, name, hello).code, StatusCode::Malformed);
  Accounting acct;
  EXPECT_EQ(decode_flush_ack({9}, acct).code, StatusCode::Malformed);
  std::vector<machine::AllocRecord> allocs;
  // Hostile count with a tiny payload must fail cleanly, not allocate.
  std::vector<u8> bad_allocs(8, 0xFF);
  EXPECT_EQ(decode_allocs(bad_allocs, allocs).code, StatusCode::Malformed);
}

/// The Hello of `ex`, passed to `patch` with the offset of its run header.
std::vector<u8> patched_hello(const Experiment& ex,
                              const std::function<void(std::vector<u8>&, size_t)>& patch) {
  std::vector<u8> payload = encode_hello("x", ex);
  ByteWriter header;
  experiment::put_run_header(header, ex);
  patch(payload, payload.size() - header.bytes().size());
  return payload;
}

/// A small Hello whose run header claims 2^32-1 counters.
std::vector<u8> huge_count_hello() {
  return patched_hello(Experiment{}, [](std::vector<u8>& b, size_t at) {
    std::memset(b.data() + at, 0xFF, 4);
  });
}

Status decode_hello_no_throw(const std::vector<u8>& payload) {
  std::string name;
  Experiment out;
  Status st;
  EXPECT_NO_THROW(st = decode_hello(payload, name, out));
  return st;
}

TEST(Wire, HugeHelloCounterCountIsMalformedNotThrown) {
  // A small Hello claiming 2^32-1 counters must be bounded before anything
  // is allocated for them: a std::bad_alloc would escape the decoder's
  // Error guard and take the daemon down with it.
  const std::vector<u8> payload = huge_count_hello();
  ASSERT_LT(payload.size(), 200u);
  const Status st = decode_hello_no_throw(payload);
  EXPECT_EQ(st.code, StatusCode::Malformed);
  EXPECT_NE(st.message.find("implausible counter count 4294967295"), std::string::npos)
      << st.message;
}

TEST(Wire, HelloWithOutOfRangeRunValuesIsMalformed) {
  // Values the analyzer would index or divide by: a counter event beyond
  // HwEvent, and a zero page or E$ line size.
  Experiment ex;
  ex.counters.resize(1);
  const std::vector<u8> bad_event = patched_hello(ex, [](std::vector<u8>& b, size_t at) {
    b[at + 4] = static_cast<u8>(machine::kNumHwEvents);  // first counter's event
  });
  EXPECT_EQ(decode_hello_no_throw(bad_event).code, StatusCode::Malformed);
  for (const bool line : {false, true}) {
    Experiment zero;
    (line ? zero.ec_line_size : zero.page_size) = 0;
    const Status st = decode_hello_no_throw(encode_hello("x", zero));
    EXPECT_EQ(st.code, StatusCode::Malformed);
    EXPECT_NE(st.message.find("zero page or E$ line size"), std::string::npos) << st.message;
  }
}

TEST(Wire, EventBatchWithOutOfRangeEventIdIsMalformed) {
  // dsprofd folds a decoded batch straight away; the fold indexes
  // per-metric arrays by each event's id.
  EventStore ev;
  ev.append(0, static_cast<machine::HwEvent>(machine::kNumHwEvents), 97, 0x4000, false, 0,
            false, 0, nullptr, 0, 1);
  EventStore out;
  const Status st = decode_event_batch(encode_event_batch(ev), out);
  EXPECT_EQ(st.code, StatusCode::Malformed);
  EXPECT_NE(st.message.find("out of range"), std::string::npos) << st.message;
}

TEST(Wire, TrailingGarbageRejected) {
  std::vector<u8> payload = encode_hello_ack(42);
  payload.push_back(0xEE);
  u64 id = 0;
  EXPECT_EQ(decode_hello_ack(payload, id).code, StatusCode::Malformed);
}

TEST_F(ServeTest, PayloadCodecsRoundtrip) {
  Experiment h;
  h.image = *image_;
  h.counters = ex_->counters;
  h.clock_interval = ex_->clock_interval;
  h.clock_hz = ex_->clock_hz;
  h.total_cycles = 123456789;
  std::string name;
  Experiment out;
  ASSERT_TRUE(decode_hello(encode_hello("codec-test", h), name, out).ok());
  EXPECT_EQ(name, "codec-test");
  ASSERT_EQ(out.counters.size(), h.counters.size());
  for (size_t i = 0; i < h.counters.size(); ++i) {
    EXPECT_EQ(out.counters[i].event, h.counters[i].event);
    EXPECT_EQ(out.counters[i].interval, h.counters[i].interval);
    EXPECT_EQ(out.counters[i].backtrack, h.counters[i].backtrack);
    EXPECT_EQ(out.counters[i].pic, h.counters[i].pic);
  }
  EXPECT_EQ(out.total_cycles, h.total_cycles);
  EXPECT_EQ(out.image.symtab.functions().size(), image_->symtab.functions().size());

  EventStore batch;
  batch.append_range(ex_->events, 0, std::min<size_t>(ex_->events.size(), 100));
  EventStore decoded;
  ASSERT_TRUE(decode_event_batch(encode_event_batch(batch), decoded).ok());
  ASSERT_EQ(decoded.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded[i].delivered_pc, batch[i].delivered_pc);
    EXPECT_TRUE(decoded.callstack(i) == batch.callstack(i));
  }

  const std::vector<machine::AllocRecord> allocs = {{0x1000, 64, 0x8000},
                                                    {0x2000, 128, 0x8010}};
  std::vector<machine::AllocRecord> allocs_out;
  ASSERT_TRUE(decode_allocs(encode_allocs(allocs), allocs_out).ok());
  EXPECT_EQ(allocs_out, allocs);

  const Accounting acct{100, 90, 10};
  Accounting a2;
  std::string json;
  ASSERT_TRUE(decode_snapshot(encode_snapshot(acct, "{\"x\":1}"), a2, json).ok());
  EXPECT_EQ(a2.events_in, 100u);
  EXPECT_EQ(a2.events_dropped, 10u);
  EXPECT_EQ(json, "{\"x\":1}");

  const Status err = Status::make(StatusCode::Overloaded, "queue full");
  Status err_out;
  ASSERT_TRUE(decode_error(encode_error(err), err_out).ok());
  EXPECT_EQ(err_out.code, StatusCode::Overloaded);
  EXPECT_EQ(err_out.message, "queue full");
}

// --- transports -------------------------------------------------------------

TEST(PipeTransport, RoundtripAndTimeout) {
  auto [a, b] = make_pipe_pair();
  const u8 msg[5] = {'h', 'e', 'l', 'l', 'o'};
  ASSERT_TRUE(a->send(msg, 5).ok());
  u8 buf[16];
  size_t got = 0;
  ASSERT_TRUE(b->recv_some(buf, sizeof buf, got, 1000).ok());
  EXPECT_EQ(got, 5u);
  EXPECT_EQ(std::memcmp(buf, msg, 5), 0);
  // Nothing more to read: a short timeout must report Timeout, not block.
  EXPECT_EQ(b->recv_some(buf, sizeof buf, got, 10).code, StatusCode::Timeout);
}

TEST(PipeTransport, BackpressureBlocksSender) {
  auto [a, b] = make_pipe_pair();
  // Far more than the kernel buffers for a socket pair, so send() must
  // block until the other end drains.
  constexpr size_t kBig = 16u << 20;
  std::atomic<bool> sent{false};
  std::thread t([&] {
    std::vector<u8> big(kBig, 0xAA);
    ASSERT_TRUE(a->send(big.data(), big.size()).ok());
    sent.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(sent.load());  // blocked on the full socket buffer
  std::vector<u8> buf(1u << 16);
  size_t total = 0, got = 0;
  while (total < kBig) {
    ASSERT_TRUE(b->recv_some(buf.data(), buf.size(), got, 1000).ok());
    total += got;
  }
  t.join();
  EXPECT_TRUE(sent.load());
}

TEST(PipeTransport, ShutdownDisconnectsBothEnds) {
  auto [a, b] = make_pipe_pair();
  a->shutdown();
  u8 buf[8];
  size_t got = 0;
  EXPECT_EQ(b->recv_some(buf, sizeof buf, got, 1000).code, StatusCode::Disconnected);
  EXPECT_EQ(a->send(buf, 1).code, StatusCode::Disconnected);
}

TEST_F(ServeTest, UdsTransportEndToEnd) {
  const testfix::ScopedTempDir tmp;
  const std::string path = tmp.path("uds.sock");
  UdsListener listener(path);
  Server server;
  std::thread accepter([&] {
    Status st;
    auto t = listener.accept(st, 5000);
    ASSERT_TRUE(t != nullptr) << st.to_string();
    server.add_session(std::move(t));
  });
  Status st;
  auto ct = uds_connect(path, st);
  ASSERT_TRUE(ct != nullptr) << st.to_string();
  accepter.join();

  Client client(std::move(ct));
  Accounting acct;
  st = stream_experiment(client, *ex_, 512, acct);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(acct.events_in, ex_->events.size());
  std::string json;
  ASSERT_TRUE(client.snapshot(acct, json).ok());
  EXPECT_EQ(json, offline_report(*ex_));
  ASSERT_TRUE(client.close(acct).ok());
  server.stop();
}

// --- the bit-identity invariant ---------------------------------------------

TEST_F(ServeTest, SnapshotMatchesOfflineAnalysis) {
  const std::string offline = offline_report(*ex_);
  EXPECT_EQ(stream_snapshot(*ex_, 512), offline);
  // The split must not matter: one giant batch, tiny batches, odd sizes.
  EXPECT_EQ(stream_snapshot(*ex_, ex_->events.size()), offline);
  EXPECT_EQ(stream_snapshot(*ex_, 7), offline);
}

TEST_F(ServeTest, SnapshotBitIdentityUnderRandomSplits) {
  const std::string offline = offline_report(*ex_);
  std::mt19937_64 rng(20030815);
  for (int round = 0; round < 3; ++round) {
    // Random batch size per round; stream_experiment slices uniformly, so
    // vary the size across rounds to cover ragged final batches.
    std::uniform_int_distribution<size_t> d(1, ex_->events.size());
    EXPECT_EQ(stream_snapshot(*ex_, d(rng)), offline) << "round " << round;
  }
}

/// Property test: fuzz-generated event streams (random PCs, EAs, weights,
/// callstacks — valid and wild values alike) streamed under random batch
/// splits render identically to the offline analyzer.
TEST_F(ServeTest, FuzzStreamsRenderIdenticallyOnlineAndOffline) {
  std::mt19937_64 rng(0xD5B0F);
  const u64 text_end = image_->text_base + image_->text_size();
  for (int round = 0; round < 4; ++round) {
    Experiment fz;
    fz.image = *image_;
    fz.counters = ex_->counters;
    fz.clock_interval = ex_->clock_interval;
    std::uniform_int_distribution<u64> pc_d(image_->text_base / 4, (text_end + 1024) / 4);
    std::uniform_int_distribution<u64> ea_d(0, 1u << 22);
    std::uniform_int_distribution<int> pct(0, 99);
    const size_t n = 500 + static_cast<size_t>(rng() % 1500);
    for (size_t i = 0; i < n; ++i) {
      const bool clock_sample = pct(rng) < 20;
      const u8 pic = clock_sample ? machine::kClockPic : static_cast<u8>(rng() % 2);
      const auto event = clock_sample
                             ? machine::HwEvent::Cycle_cnt
                             : (pic == 0 ? machine::HwEvent::EC_stall_cycles
                                         : machine::HwEvent::EC_rd_miss);
      const u64 pc = pc_d(rng) * 4;
      const bool has_candidate = !clock_sample && pct(rng) < 70;
      const bool has_ea = has_candidate && pct(rng) < 80;
      u64 stack[4];
      const size_t depth = rng() % 4;
      for (size_t dpth = 0; dpth < depth; ++dpth) stack[dpth] = pc_d(rng) * 4;
      fz.events.append(pic, event, clock_sample ? ex_->clock_interval : 97, pc,
                       has_candidate, pc - 4 * (rng() % 8), has_ea, ea_d(rng), stack, depth,
                       i);
    }
    const std::string offline = offline_report(fz);
    const size_t batch = 1 + static_cast<size_t>(rng() % n);
    EXPECT_EQ(stream_snapshot(fz, batch), offline) << "round " << round;
  }
}

TEST_F(ServeTest, TwoConcurrentSessionsStayIsolated) {
  Server server;
  auto [c1, s1] = make_pipe_pair();
  auto [c2, s2] = make_pipe_pair();
  server.add_session(std::move(s1));
  server.add_session(std::move(s2));
  Client cl1(std::move(c1)), cl2(std::move(c2));

  // Session 2 gets only a prefix; both must render their own events only.
  Experiment half;
  half.image = ex_->image;
  half.counters = ex_->counters;
  half.clock_interval = ex_->clock_interval;
  half.events.append_range(ex_->events, 0, ex_->events.size() / 2);

  std::thread t1([&] {
    Accounting a;
    ASSERT_TRUE(stream_experiment(cl1, *ex_, 256, a).ok());
  });
  std::thread t2([&] {
    Accounting a;
    ASSERT_TRUE(stream_experiment(cl2, half, 101, a).ok());
  });
  t1.join();
  t2.join();

  Accounting a;
  std::string j1, j2;
  ASSERT_TRUE(cl1.snapshot(a, j1).ok());
  ASSERT_TRUE(cl2.snapshot(a, j2).ok());
  EXPECT_EQ(j1, offline_report(*ex_));
  EXPECT_EQ(j2, offline_report(half));
  ASSERT_TRUE(cl1.close(a).ok());
  ASSERT_TRUE(cl2.close(a).ok());
  server.stop();
}

// --- overload, backpressure, robustness -------------------------------------

TEST_F(ServeTest, DropOldestAccountsEveryEvent) {
  // Stall the reducer until released so the tiny queue must overflow.
  std::atomic<bool> release{false};
  std::atomic<int> folds{0};
  ServerOptions sopt;
  sopt.max_queued_batches = 2;
  sopt.before_reduce = [&](u64) {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    folds.fetch_add(1);
  };
  Server server(sopt);
  auto [client_end, server_end] = make_pipe_pair();
  server.add_session(std::move(server_end));
  ClientOptions lenient;
  lenient.max_retries = 50;  // the stalled reducer may need a few timeouts
  Client client(std::move(client_end), lenient);

  u64 sid = 0;
  ASSERT_TRUE(client.hello(*ex_, sid).ok());
  const size_t kBatch = 10, kBatches = 10;
  ASSERT_GE(ex_->events.size(), kBatch * kBatches);
  for (size_t i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(client.send_batch(ex_->events, i * kBatch, (i + 1) * kBatch).ok());
  }
  // Only release once the reader has ingested every batch: the reducer is
  // stalled holding the first, so the tiny queue must have evicted the
  // excess by then. (Without this the release can race the reader and the
  // drained queue never overflows.)
  while (server.stats().batches_in < kBatches) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.store(true);

  Accounting acct;
  ASSERT_TRUE(client.flush(acct).ok());
  // Exact accounting: every sent event is either folded or counted dropped.
  EXPECT_EQ(acct.events_in, kBatch * kBatches);
  EXPECT_EQ(acct.events_in, acct.events_reduced + acct.events_dropped);
  EXPECT_GT(acct.events_dropped, 0u) << "queue of 2 with 10 batches must drop";
  EXPECT_EQ(acct.events_dropped % kBatch, 0u) << "drops happen in whole batches";

  // The loss is surfaced in the report: a "(Dropped)" row with the count.
  std::string json;
  ASSERT_TRUE(client.snapshot(acct, json).ok());
  EXPECT_NE(json.find("\"(Dropped)\",\"events\":" + std::to_string(acct.events_dropped)),
            std::string::npos)
      << json;
  ASSERT_TRUE(client.close(acct).ok());
  server.stop();
}

TEST_F(ServeTest, BlockPolicyDropsNothing) {
  ServerOptions sopt;
  sopt.max_queued_batches = 1;
  sopt.overload = ServerOptions::Overload::Block;
  sopt.before_reduce = [](u64) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // slow reducer
  };
  Server server(sopt);
  auto [client_end, server_end] = make_pipe_pair();
  server.add_session(std::move(server_end));
  Client client(std::move(client_end));

  u64 sid = 0;
  ASSERT_TRUE(client.hello(*ex_, sid).ok());
  const size_t kBatch = 10, kBatches = 10;
  ASSERT_GE(ex_->events.size(), kBatch * kBatches);
  for (size_t i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(client.send_batch(ex_->events, i * kBatch, (i + 1) * kBatch).ok());
  }
  Accounting acct;
  ASSERT_TRUE(client.flush(acct).ok());
  EXPECT_EQ(acct.events_in, kBatch * kBatches);
  EXPECT_EQ(acct.events_reduced, kBatch * kBatches);
  EXPECT_EQ(acct.events_dropped, 0u);
  ASSERT_TRUE(client.close(acct).ok());
  server.stop();
}

TEST_F(ServeTest, DisconnectMidBatchDiscardsPartialFrameOnly) {
  Server server;
  auto [client_end, server_end] = make_pipe_pair();
  const u64 id = server.add_session(std::move(server_end));

  // Speak the protocol by hand so we can cut the connection mid-frame.
  FrameReader replies;
  const auto send_raw = [&](const std::vector<u8>& b) {
    ASSERT_TRUE(client_end->send(b.data(), b.size()).ok());
  };
  Experiment h;
  h.image = *image_;
  h.counters = ex_->counters;
  send_raw(encode_frame(FrameType::Hello, encode_hello("rude-client", h)));

  // Wait for the HelloAck: shutting down before the server replies would
  // fail its HelloAck send and poison the session before the batch lands.
  {
    std::vector<u8> buf(4096);
    Frame ack;
    bool got_ack = false;
    while (!got_ack) {
      size_t got = 0;
      ASSERT_TRUE(client_end->recv_some(buf.data(), buf.size(), got, 2000).ok());
      ASSERT_TRUE(replies.feed(buf.data(), got).ok());
      while (replies.next_frame(ack)) {
        ASSERT_EQ(ack.type, FrameType::HelloAck);
        got_ack = true;
      }
    }
  }

  ASSERT_GE(ex_->events.size(), 100u);
  EventStore complete;
  complete.append_range(ex_->events, 0, 50);
  send_raw(encode_frame(FrameType::EventBatch, encode_event_batch(complete)));

  // Half an EventBatch frame, then vanish.
  EventStore partial;
  partial.append_range(ex_->events, 50, 100);
  const std::vector<u8> frame = encode_frame(FrameType::EventBatch,
                                             encode_event_batch(partial));
  ASSERT_TRUE(client_end->send(frame.data(), frame.size() / 2).ok());
  client_end->shutdown();

  server.wait_session(id);  // session must finalize, not hang or crash
  const ServerStats st = server.stats();
  // The complete batch was folded; the torn frame's events appear nowhere.
  EXPECT_EQ(st.events_in, 50u);
  EXPECT_EQ(st.events_reduced, 50u);
  EXPECT_EQ(st.events_dropped, 0u);
  EXPECT_EQ(st.sessions_active, 0u);
  server.stop();
}

TEST_F(ServeTest, CorruptFrameKillsSessionNotServer) {
  Server server;
  auto [client_end, server_end] = make_pipe_pair();
  const u64 id = server.add_session(std::move(server_end));

  std::vector<u8> garbage(32, 0x5A);  // wrong magic
  ASSERT_TRUE(client_end->send(garbage.data(), garbage.size()).ok());

  // The server answers with an Error frame naming the failure, then closes.
  FrameReader r;
  std::vector<u8> buf(4096);
  Frame f;
  bool got_error = false;
  for (int i = 0; i < 50 && !got_error; ++i) {
    size_t got = 0;
    const Status st = client_end->recv_some(buf.data(), buf.size(), got, 1000);
    if (!st.ok()) break;
    ASSERT_TRUE(r.feed(buf.data(), got).ok());
    while (r.next_frame(f)) {
      if (f.type == FrameType::Error) {
        Status carried;
        ASSERT_TRUE(decode_error(f.payload, carried).ok());
        EXPECT_EQ(carried.code, StatusCode::BadMagic);
        got_error = true;
      }
    }
  }
  EXPECT_TRUE(got_error);
  server.wait_session(id);

  // The server survives and accepts a fresh, healthy session.
  auto [c2, s2] = make_pipe_pair();
  server.add_session(std::move(s2));
  Client client(std::move(c2));
  Accounting acct;
  ASSERT_TRUE(stream_experiment(client, *ex_, 512, acct).ok());
  EXPECT_EQ(acct.events_reduced, ex_->events.size());
  ASSERT_TRUE(client.close(acct).ok());
  server.stop();
}

TEST_F(ServeTest, HostileHelloKillsSessionNotServer) {
  // The huge-counter-count Hello, sent to a live daemon: the session gets a
  // Malformed Error frame, the daemon keeps serving.
  Server server;
  auto [client_end, server_end] = make_pipe_pair();
  const u64 id = server.add_session(std::move(server_end));
  const std::vector<u8> frame = encode_frame(FrameType::Hello, huge_count_hello());
  ASSERT_TRUE(client_end->send(frame.data(), frame.size()).ok());

  FrameReader r;
  std::vector<u8> buf(4096);
  Frame f;
  bool got_error = false;
  for (int i = 0; i < 50 && !got_error; ++i) {
    size_t got = 0;
    if (!client_end->recv_some(buf.data(), buf.size(), got, 1000).ok()) break;
    ASSERT_TRUE(r.feed(buf.data(), got).ok());
    while (r.next_frame(f)) {
      ASSERT_EQ(f.type, FrameType::Error);
      Status carried;
      ASSERT_TRUE(decode_error(f.payload, carried).ok());
      EXPECT_EQ(carried.code, StatusCode::Malformed) << carried.message;
      got_error = true;
    }
  }
  EXPECT_TRUE(got_error);
  server.wait_session(id);

  auto [c2, s2] = make_pipe_pair();
  server.add_session(std::move(s2));
  Client client(std::move(c2));
  Accounting acct;
  ASSERT_TRUE(stream_experiment(client, *ex_, 512, acct).ok());
  EXPECT_EQ(acct.events_reduced, ex_->events.size());
  ASSERT_TRUE(client.close(acct).ok());
  server.stop();
}

TEST_F(ServeTest, ProtocolViolationsRefusedCleanly) {
  // Batch before handshake.
  {
    Server server;
    auto [client_end, server_end] = make_pipe_pair();
    server.add_session(std::move(server_end));
    EventStore batch;
    batch.append_range(ex_->events, 0, 10);
    const std::vector<u8> bytes =
        encode_frame(FrameType::EventBatch, encode_event_batch(batch));
    ASSERT_TRUE(client_end->send(bytes.data(), bytes.size()).ok());
    FrameReader r;
    std::vector<u8> buf(4096);
    size_t got = 0;
    ASSERT_TRUE(client_end->recv_some(buf.data(), buf.size(), got, 2000).ok());
    ASSERT_TRUE(r.feed(buf.data(), got).ok());
    Frame f;
    ASSERT_TRUE(r.next_frame(f));
    EXPECT_EQ(f.type, FrameType::Error);
    Status carried;
    ASSERT_TRUE(decode_error(f.payload, carried).ok());
    EXPECT_EQ(carried.code, StatusCode::Refused);
    server.stop();
  }
  // Duplicate Hello.
  {
    Server server;
    auto [client_end, server_end] = make_pipe_pair();
    server.add_session(std::move(server_end));
    Client client(std::move(client_end));
    u64 sid = 0;
    ASSERT_TRUE(client.hello(*ex_, sid).ok());
    const Status st = client.hello(*ex_, sid);
    EXPECT_EQ(st.code, StatusCode::Refused);
    server.stop();
  }
}

/// Transport wrapper that times out the first `misses` receives — exercising
/// the client's retry/backoff path without a slow server.
class FlakyTransport final : public Transport {
 public:
  FlakyTransport(std::unique_ptr<Transport> inner, int misses)
      : inner_(std::move(inner)), misses_(misses) {}
  Status send(const u8* data, size_t n) override { return inner_->send(data, n); }
  Status recv_some(u8* buf, size_t cap, size_t& got, int timeout_ms) override {
    if (misses_ > 0) {
      --misses_;
      got = 0;
      return Status::make(StatusCode::Timeout, "injected timeout");
    }
    return inner_->recv_some(buf, cap, got, timeout_ms);
  }
  void shutdown() override { inner_->shutdown(); }

 private:
  std::unique_ptr<Transport> inner_;
  int misses_;
};

TEST_F(ServeTest, ClientRetriesTimeoutsWithBackoff) {
  Server server;
  auto [client_end, server_end] = make_pipe_pair();
  server.add_session(std::move(server_end));
  ClientOptions copt;
  copt.max_retries = 3;
  copt.backoff_ms = 1;
  Client client(std::make_unique<FlakyTransport>(std::move(client_end), 2), copt);
  u64 sid = 0;
  const Status st = client.hello(*ex_, sid);
  EXPECT_TRUE(st.ok()) << st.to_string();  // 2 injected timeouts < 3 retries
  Accounting acct;
  ASSERT_TRUE(client.close(acct).ok());
  server.stop();
}

TEST_F(ServeTest, ClientGivesUpAfterMaxRetries) {
  // No server at all: every recv times out, and after max_retries the
  // client reports Timeout instead of spinning forever.
  auto [client_end, server_end] = make_pipe_pair();
  ClientOptions copt;
  copt.recv_timeout_ms = 5;
  copt.max_retries = 2;
  copt.backoff_ms = 1;
  Client client(std::move(client_end));
  Client flaky(std::make_unique<FlakyTransport>(std::move(server_end), 1000), copt);
  u64 sid = 0;
  EXPECT_EQ(flaky.hello(*ex_, sid).code, StatusCode::Timeout);
}

TEST_F(ServeTest, StatsFrameReportsCounters) {
  Server server;
  auto [client_end, server_end] = make_pipe_pair();
  server.add_session(std::move(server_end));
  Client client(std::move(client_end));
  Accounting acct;
  ASSERT_TRUE(stream_experiment(client, *ex_, 512, acct).ok());
  std::string json;
  ASSERT_TRUE(client.server_stats(json).ok());
  EXPECT_NE(json.find("\"sessions_total\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"events_in\":" + std::to_string(ex_->events.size())),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"events_dropped\":0"), std::string::npos) << json;
  ASSERT_TRUE(client.close(acct).ok());

  const ServerStats st = server.stats();
  EXPECT_EQ(st.events_in, st.events_reduced + st.events_dropped);
  EXPECT_GT(st.reduce_calls, 0u);
  server.stop();
}

TEST_F(ServeTest, AllocationsFlowIntoInstanceView) {
  // The Alloc frame feeds Analysis's allocation context: after streaming,
  // a snapshot must carry the same data_objects and the server-side
  // Analysis sees the same allocation list the offline one does (covered
  // indirectly by bit-identity, asserted directly here via accounting).
  Server server;
  auto [client_end, server_end] = make_pipe_pair();
  server.add_session(std::move(server_end));
  Client client(std::move(client_end));
  u64 sid = 0;
  ASSERT_TRUE(client.hello(*ex_, sid).ok());
  ASSERT_TRUE(client.send_allocations(ex_->allocations).ok());
  ASSERT_TRUE(client.send_batch(ex_->events).ok());
  Accounting acct;
  std::string json;
  ASSERT_TRUE(client.snapshot(acct, json).ok());
  EXPECT_EQ(json, offline_report(*ex_));
  ASSERT_TRUE(client.close(acct).ok());
  server.stop();
}

// --- queue-free direct-fold ingest ------------------------------------------

/// Options whose before_reduce seam sends every batch through the queue.
ServerOptions queued_options() {
  ServerOptions sopt;
  sopt.before_reduce = [](u64) {};
  return sopt;
}

TEST_F(ServeTest, DirectFoldSnapshotBitIdenticalToQueued) {
  // The queue-free fast path must not change a single output byte: the
  // same stream folded inline and through the queue renders the offline
  // report either way, across batch splits.
  const std::string offline = offline_report(*ex_);
  for (const size_t batch : {size_t{64}, size_t{1000}, ex_->events.size()}) {
    EXPECT_EQ(stream_snapshot(*ex_, batch, ServerOptions{}), offline) << "batch " << batch;
    EXPECT_EQ(stream_snapshot(*ex_, batch, queued_options()), offline) << "batch " << batch;
  }
}

TEST_F(ServeTest, DirectFoldTakesTheFastPathAndQueuedNever) {
  const auto run = [&](const ServerOptions& sopt) {
    Server server(sopt);
    auto [client_end, server_end] = make_pipe_pair();
    server.add_session(std::move(server_end));
    Client client(std::move(client_end));
    Accounting acct;
    EXPECT_TRUE(stream_experiment(client, *ex_, 512, acct).ok());
    EXPECT_TRUE(client.close(acct).ok());
    const ServerStats st = server.stats();
    EXPECT_EQ(st.events_in, st.events_reduced + st.events_dropped);
    server.stop();
    return st;
  };
  // Default: the first batch always finds the queue empty and the reducer
  // idle, so at least one fold runs inline in the reader.
  const ServerStats direct = run(ServerOptions{});
  EXPECT_GT(direct.direct_folds, 0u);
  EXPECT_EQ(direct.events_dropped, 0u);
  // With the seam installed the fast path never runs.
  const ServerStats queued = run(queued_options());
  EXPECT_EQ(queued.direct_folds, 0u);
  EXPECT_EQ(queued.events_in, direct.events_in);
  EXPECT_EQ(queued.events_reduced, direct.events_reduced);
}

TEST_F(ServeTest, BeforeReduceSeamForcesQueuedPath) {
  // Overload tests stall the reducer through before_reduce; the fast path
  // must not bypass the seam (or those tests would stop meaning anything).
  ServerOptions sopt;
  std::atomic<unsigned> seam_hits{0};
  sopt.before_reduce = [&](u64) { seam_hits.fetch_add(1); };
  Server server(sopt);
  auto [client_end, server_end] = make_pipe_pair();
  server.add_session(std::move(server_end));
  Client client(std::move(client_end));
  Accounting acct;
  ASSERT_TRUE(stream_experiment(client, *ex_, 512, acct).ok());
  ASSERT_TRUE(client.close(acct).ok());
  const ServerStats st = server.stats();
  EXPECT_EQ(st.direct_folds, 0u);
  EXPECT_EQ(seam_hits.load(), st.reduce_calls);
  server.stop();
}

// --- TCP transport + endpoint URIs ------------------------------------------

TEST(Endpoints, ParseGrammar) {
  Endpoint e;
  ASSERT_TRUE(parse_endpoint("unix:///tmp/x.sock", e).ok());
  EXPECT_EQ(e.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(e.path, "/tmp/x.sock");
  ASSERT_TRUE(parse_endpoint("/tmp/bare.sock", e).ok());  // the historic --socket form
  EXPECT_EQ(e.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(e.path, "/tmp/bare.sock");
  ASSERT_TRUE(parse_endpoint("tcp://127.0.0.1:8080", e).ok());
  EXPECT_EQ(e.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 8080);
  ASSERT_TRUE(parse_endpoint("tcp://0.0.0.0:0", e).ok());  // ephemeral-port request
  EXPECT_EQ(e.port, 0);

  EXPECT_EQ(parse_endpoint("", e).code, StatusCode::Refused);
  EXPECT_EQ(parse_endpoint("unix://", e).code, StatusCode::Refused);
  EXPECT_EQ(parse_endpoint("tcp://127.0.0.1", e).code, StatusCode::Refused);  // no port
  EXPECT_EQ(parse_endpoint("tcp://127.0.0.1:99999", e).code, StatusCode::Refused);
  EXPECT_EQ(parse_endpoint("tcp://127.0.0.1:12x", e).code, StatusCode::Refused);
  EXPECT_EQ(parse_endpoint("http://host:1", e).code, StatusCode::Refused);
}

TEST(Endpoints, MalformedUriFailsFastInRetry) {
  // A URI that cannot parse never becomes connectable — connect_with_retry
  // must give up immediately instead of burning the whole backoff budget.
  Status st;
  ConnectRetry retry;
  retry.attempts = 1000;
  retry.backoff_ms = 10'000;  // would hang for hours if (wrongly) retried
  EXPECT_EQ(connect_with_retry("http://nope:1", st, retry), nullptr);
  EXPECT_EQ(st.code, StatusCode::Refused);
}

TEST(Endpoints, RetryReachesAListenerThatStartsLate) {
  // The deployment race connect_with_retry exists for: the collector comes
  // up before the daemon. The first attempts fail (no socket yet), then the
  // listener appears and a later attempt lands.
  const testfix::ScopedTempDir tmp;
  const std::string path = tmp.path("late.sock");
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    UdsListener listener(path);
    Status st;
    auto t = listener.accept(st, 5000);
    ASSERT_TRUE(t != nullptr) << st.to_string();
  });
  Status st;
  ConnectRetry retry;
  retry.attempts = 50;
  retry.backoff_ms = 10;
  auto t = connect_with_retry("unix://" + path, st, retry);
  EXPECT_TRUE(t != nullptr) << st.to_string();
  late.join();
}

TEST_F(ServeTest, TcpTransportEndToEnd) {
  // Mirror of UdsTransportEndToEnd over TCP loopback with an ephemeral
  // port: the wire protocol must not see any difference between socket
  // flavors, down to the snapshot bytes.
  TcpListener listener("127.0.0.1", 0);
  EXPECT_GT(listener.port(), 0u);  // kernel-assigned, reported back
  EXPECT_EQ(listener.endpoint(), "tcp://127.0.0.1:" + std::to_string(listener.port()));
  Server server;
  std::thread accepter([&] {
    Status st;
    auto t = listener.accept(st, 5000);
    ASSERT_TRUE(t != nullptr) << st.to_string();
    server.add_session(std::move(t));
  });
  Status st;
  auto ct = connect_endpoint(listener.endpoint(), st, /*timeout_ms=*/5000);
  ASSERT_TRUE(ct != nullptr) << st.to_string();
  accepter.join();

  Client client(std::move(ct));
  Accounting acct;
  st = stream_experiment(client, *ex_, 512, acct);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(acct.events_in, ex_->events.size());
  std::string json;
  ASSERT_TRUE(client.snapshot(acct, json).ok());
  EXPECT_EQ(json, offline_report(*ex_));
  ASSERT_TRUE(client.close(acct).ok());
  server.stop();
}

// --- the merged fleet view --------------------------------------------------

/// Open a pipe session on `server` and stream `ex` in `batch`-event frames;
/// the returned client is left open (a live session) unless closed.
std::unique_ptr<Client> open_and_stream(Server& server, const Experiment& ex, size_t batch) {
  auto [client_end, server_end] = make_pipe_pair();
  server.add_session(std::move(server_end));
  auto client = std::make_unique<Client>(std::move(client_end));
  Accounting acct;
  const Status st = stream_experiment(*client, ex, batch, acct);
  EXPECT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(acct.events_in, ex.events.size());
  return client;
}

std::string offline_multi(const std::vector<const Experiment*>& exps) {
  analyze::Analysis a(exps);
  return analyze::render_json_report(a);
}

TEST_F(ServeTest, MergedSnapshotMatchesOfflineMultiDirForAnySplit) {
  // Sessions play the role of experiment dirs: the merged fleet view must
  // render the bytes `er_print dir1 dir2 dir3 -J` would, whatever the
  // per-session batch split, with completed and live sessions mixed.
  const Experiment ex2 = testfix::quick_collect(*image_, "+dcrm,101", "hi", small_machine());
  const Experiment ex3 = testfix::quick_collect(*image_, "+ecrm,211", "on", small_machine());
  const std::string offline = offline_multi({ex_, &ex2, &ex3});
  std::mt19937_64 rng(4096);
  for (int round = 0; round < 3; ++round) {
    Server server;
    std::uniform_int_distribution<size_t> d(1, ex_->events.size());
    auto c1 = open_and_stream(server, *ex_, d(rng));
    auto c2 = open_and_stream(server, ex2, d(rng));
    auto c3 = open_and_stream(server, ex3, d(rng));
    // Close the middle session: the merge must span finalized and live
    // sessions alike, in session-id (arrival) order.
    Accounting acct;
    ASSERT_TRUE(c2->close(acct).ok());
    server.wait_session(2);
    std::string json;
    ASSERT_TRUE(c1->merged_snapshot(acct, json).ok());
    EXPECT_EQ(json, offline) << "round " << round;
    EXPECT_EQ(acct.events_in, ex_->events.size() + ex2.events.size() + ex3.events.size());
    server.stop();
  }
}

TEST_F(ServeTest, MergedSnapshotNeedsNoHelloAndRefusesAnEmptyFleet) {
  Server server;
  {
    // A monitoring client on an empty fleet: Refused, carried on an Error
    // frame (which closes the monitoring session, by protocol).
    auto [m_end, s_end] = make_pipe_pair();
    server.add_session(std::move(s_end));
    Client monitor(std::move(m_end));
    Accounting acct;
    std::string json;
    EXPECT_EQ(monitor.merged_snapshot(acct, json).code, StatusCode::Refused);
  }
  // With one streamed session, a fresh monitoring client gets the fleet
  // view without ever sending a Hello of its own.
  auto c1 = open_and_stream(server, *ex_, 512);
  auto [m_end, s_end] = make_pipe_pair();
  server.add_session(std::move(s_end));
  Client monitor(std::move(m_end));
  Accounting acct;
  std::string json;
  ASSERT_TRUE(monitor.merged_snapshot(acct, json).ok());
  EXPECT_EQ(json, offline_report(*ex_));
  EXPECT_EQ(acct.events_in, ex_->events.size());
  server.stop();
}

// --- retention + the rolling stats window -----------------------------------

TEST_F(ServeTest, RetentionEvictsTheOldestCompletedSessions) {
  ServerOptions sopt;
  sopt.retain_sessions = 1;
  Server server(sopt);
  const Experiment ex2 = testfix::quick_collect(*image_, "+dcrm,101", "hi", small_machine());
  for (const Experiment* ex : {const_cast<const Experiment*>(ex_), &ex2}) {
    auto c = open_and_stream(server, *ex, 512);
    Accounting acct;
    ASSERT_TRUE(c->close(acct).ok());
  }
  server.wait_all();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.sessions_total, 2u);
  EXPECT_EQ(st.sessions_retained, 1u);
  EXPECT_EQ(st.sessions_evicted, 1u);
  // Eviction frees aggregates, never accounting: cumulative totals intact.
  EXPECT_EQ(st.events_in, ex_->events.size() + ex2.events.size());
  EXPECT_EQ(st.events_in, st.events_reduced + st.events_dropped);
  // The merged view now covers only the retained (newest) session.
  auto [m_end, s_end] = make_pipe_pair();
  server.add_session(std::move(s_end));
  Client monitor(std::move(m_end));
  Accounting acct;
  std::string json;
  ASSERT_TRUE(monitor.merged_snapshot(acct, json).ok());
  EXPECT_EQ(json, offline_report(ex2));
  EXPECT_EQ(acct.events_in, ex2.events.size());
  server.stop();
}

TEST_F(ServeTest, StatsWindowTracksTheTrailingDeltas) {
  Server server;  // default 60 s window: this whole test fits inside it
  // First sample establishes the pre-traffic baseline point.
  const ServerStats before = server.stats();
  EXPECT_EQ(before.window_events_in, 0u);
  EXPECT_EQ(before.window_ms, 60'000u);
  auto c = open_and_stream(server, *ex_, 512);
  Accounting acct;
  ASSERT_TRUE(c->close(acct).ok());
  server.wait_all();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.window_events_in, ex_->events.size());
  EXPECT_EQ(st.window_sessions, 1u);
  EXPECT_GT(st.window_events_per_sec, 0.0);
  // The Stats JSON carries the nested window object for wire clients.
  EXPECT_NE(st.to_json().find("\"window\":{\"ms\":60000,"), std::string::npos)
      << st.to_json();
  server.stop();
}

}  // namespace
}  // namespace dsprof::serve

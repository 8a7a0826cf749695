// Columnar EventStore: callstack-arena interning, the aligned columnar codec
// and events.bin save/load round trips (the zero-copy mapped load), the
// loader's rejection of corrupt files, and bit-identity of the product
// reduction against the seed-equivalent std::map oracle
// (tests/reduce_oracle.hpp) on collected, mapped and random stores.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <random>

#include "analyze/reports.hpp"
#include "dsl_fixtures.hpp"
#include "experiment/experiment.hpp"
#include "reduce_oracle.hpp"
#include "scc/compile.hpp"
#include "support/bytestream.hpp"
#include "support/mmap_file.hpp"
#include "temp_dir.hpp"

namespace dsprof::experiment {
namespace {

using machine::HwEvent;

EventStore make_store(const std::vector<std::vector<u64>>& stacks) {
  EventStore s;
  u64 seq = 0;
  for (const auto& cs : stacks) {
    s.append(/*pic=*/0, HwEvent::EC_rd_miss, /*weight=*/1009, /*delivered_pc=*/0x1000 + seq,
             /*has_candidate=*/true, /*candidate_pc=*/0x0ff0 + seq, /*has_ea=*/true,
             /*ea=*/0x8000 + 8 * seq, cs.data(), cs.size(), seq);
    ++seq;
  }
  return s;
}

TEST(EventStoreInterning, IdenticalStacksShareOneArenaRange) {
  const std::vector<u64> hot = {0x100, 0x200, 0x300};
  EventStore s = make_store({hot, hot, hot, hot});
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.unique_callstacks(), 1u);
  EXPECT_EQ(s.arena_words(), hot.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_TRUE(s.callstack(i) == hot);
    // All four events address the very same arena words.
    EXPECT_EQ(s.callstack(i).ptr, s.callstack(0).ptr);
  }
}

TEST(EventStoreInterning, DistinctStacksGetDistinctRanges) {
  const std::vector<u64> a = {0x100, 0x200};
  const std::vector<u64> b = {0x100, 0x201};     // same length, different words
  const std::vector<u64> c = {0x100};            // prefix of a
  const std::vector<u64> d = {0x100, 0x200, 1};  // extension of a
  EventStore s = make_store({a, b, c, d, a, b});
  EXPECT_EQ(s.unique_callstacks(), 4u);
  EXPECT_EQ(s.arena_words(), a.size() + b.size() + c.size() + d.size());
  EXPECT_TRUE(s.callstack(0) == a);
  EXPECT_TRUE(s.callstack(1) == b);
  EXPECT_TRUE(s.callstack(2) == c);
  EXPECT_TRUE(s.callstack(3) == d);
  EXPECT_EQ(s.callstack(4).ptr, s.callstack(0).ptr);
  EXPECT_EQ(s.callstack(5).ptr, s.callstack(1).ptr);
}

TEST(EventStoreInterning, EmptyCallstacksCostNoArena) {
  EventStore s = make_store({{}, {0x1}, {}});
  EXPECT_EQ(s.unique_callstacks(), 2u);  // the empty stack plus {0x1}
  EXPECT_EQ(s.arena_words(), 1u);
  EXPECT_TRUE(s.callstack(0).empty());
  EXPECT_TRUE(s.callstack(2).empty());
}

TEST(EventStoreBulk, AppendRangePreservesEveryFieldAndReinterns) {
  const std::vector<u64> a = {0x100, 0x200};
  const std::vector<u64> b = {0x300};
  EventStore src = make_store({a, b, a, {}, b, a});

  EventStore dst;
  dst.append_range(src, 1, 5);  // b, a, {}, b
  ASSERT_EQ(dst.size(), 4u);
  for (size_t i = 0; i < dst.size(); ++i) {
    const EventView e = src[i + 1];
    const EventView d = dst[i];
    EXPECT_EQ(d.pic, e.pic);
    EXPECT_EQ(d.event, e.event);
    EXPECT_EQ(d.weight, e.weight);
    EXPECT_EQ(d.delivered_pc, e.delivered_pc);
    EXPECT_EQ(d.has_candidate, e.has_candidate);
    EXPECT_EQ(d.candidate_pc, e.candidate_pc);
    EXPECT_EQ(d.has_ea, e.has_ea);
    EXPECT_EQ(d.ea, e.ea);
    EXPECT_TRUE(d.callstack == e.callstack.to_vector());
    EXPECT_EQ(d.seq, e.seq);
  }
  // The destination arena is rebuilt by re-interning, not copied wholesale:
  // only the stacks that actually occur in the range are stored, once each.
  EXPECT_EQ(dst.unique_callstacks(), 3u);  // a, b, and the empty stack
  EXPECT_EQ(dst.arena_words(), a.size() + b.size());

  // append_store == append_range over the whole source.
  EventStore whole;
  whole.append_store(src);
  whole.append_store(src);
  ASSERT_EQ(whole.size(), 2 * src.size());
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(whole[i].seq, src[i].seq);
    EXPECT_EQ(whole[src.size() + i].delivered_pc, src[i].delivered_pc);
    EXPECT_TRUE(whole[src.size() + i].callstack == src[i].callstack.to_vector());
  }
  EXPECT_EQ(whole.unique_callstacks(), src.unique_callstacks());
  EXPECT_EQ(whole.arena_words(), src.arena_words());

  // Out-of-range and inverted ranges are rejected, as is appending from self.
  EXPECT_THROW(dst.append_range(src, 4, 3), Error);
  EXPECT_THROW(dst.append_range(src, 0, src.size() + 1), Error);
  EXPECT_THROW(dst.append_range(dst, 0, dst.size()), Error);
}

TEST(EventStore, ViewsMaterializeEveryField) {
  EventStore s;
  s.append(machine::kClockPic, HwEvent::Cycle_cnt, 900'001, 0xabc, false, 0, false, 0,
           nullptr, 0, 7);
  const std::vector<u64> cs = {0x42};
  s.append(1, HwEvent::DTLB_miss, 499, 0xdef, true, 0xdd0, true, 0xbeef, cs.data(),
           cs.size(), 8);
  const EventView v0 = s[0];
  EXPECT_EQ(v0.pic, machine::kClockPic);
  EXPECT_EQ(v0.event, HwEvent::Cycle_cnt);
  EXPECT_EQ(v0.weight, 900'001u);
  EXPECT_EQ(v0.delivered_pc, 0xabcu);
  EXPECT_FALSE(v0.has_candidate);
  EXPECT_FALSE(v0.has_ea);
  EXPECT_TRUE(v0.callstack.empty());
  EXPECT_EQ(v0.seq, 7u);
  const EventView v1 = s[1];
  EXPECT_EQ(v1.pic, 1u);
  EXPECT_EQ(v1.event, HwEvent::DTLB_miss);
  EXPECT_TRUE(v1.has_candidate);
  EXPECT_EQ(v1.candidate_pc, 0xdd0u);
  EXPECT_TRUE(v1.has_ea);
  EXPECT_EQ(v1.ea, 0xbeefu);
  EXPECT_TRUE(v1.callstack == cs);
  // Iteration yields the same views.
  size_t n = 0;
  for (const auto& e : s) {
    EXPECT_EQ(e.seq, 7u + n);
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

/// Encode `s` with the aligned codec and decode it as a mapped store over a
/// shared copy of the bytes (the wire batch decode path).
EventStore aligned_round_trip(const EventStore& s) {
  ByteWriter w;
  s.serialize_aligned(w);
  const auto bytes = std::make_shared<const std::vector<u8>>(w.take());
  ByteReader r(*bytes);
  EventStore back = EventStore::deserialize_aligned(r, bytes);
  EXPECT_TRUE(r.at_end());
  return back;
}

TEST(EventStore, SerializeRoundTripPreservesEverything) {
  const std::vector<u64> a = {1, 2, 3}, b = {9};
  EventStore s = make_store({a, b, a, {}, b});
  const EventStore back = aligned_round_trip(s);
  ASSERT_TRUE(back.is_mapped());
  ASSERT_EQ(back.size(), s.size());
  EXPECT_EQ(back.unique_callstacks(), s.unique_callstacks());
  EXPECT_EQ(back.arena_words(), s.arena_words());
  for (size_t i = 0; i < s.size(); ++i) {
    const EventView x = s[i], y = back[i];
    EXPECT_EQ(x.pic, y.pic);
    EXPECT_EQ(x.event, y.event);
    EXPECT_EQ(x.weight, y.weight);
    EXPECT_EQ(x.delivered_pc, y.delivered_pc);
    EXPECT_EQ(x.has_candidate, y.has_candidate);
    EXPECT_EQ(x.candidate_pc, y.candidate_pc);
    EXPECT_EQ(x.has_ea, y.has_ea);
    EXPECT_EQ(x.ea, y.ea);
    EXPECT_TRUE(x.callstack == y.callstack);
    EXPECT_EQ(x.seq, y.seq);
    EXPECT_EQ(x.set, y.set);
  }
  // A decoded store is read-only; copied into an owning store it interns
  // again, so appending a known stack reuses its arena range.
  EventStore live;
  live.append_store(back);
  live.append(0, HwEvent::EC_rd_miss, 1, 1, false, 0, false, 0, a.data(), a.size(), 99);
  EXPECT_EQ(live.unique_callstacks(), s.unique_callstacks());
  EXPECT_EQ(live.arena_words(), s.arena_words());
}

TEST(EventStore, TruncatedStreamIsRejected) {
  EventStore s = make_store({{1, 2}, {3}});
  ByteWriter w;
  s.serialize_aligned(w);
  auto bytes = std::make_shared<std::vector<u8>>(w.take());
  bytes->resize(bytes->size() / 2);
  ByteReader r(*bytes);
  EXPECT_THROW(EventStore::deserialize_aligned(r, bytes), Error);
}

// --- corruption robustness ---------------------------------------------------
// A truncated or corrupt experiment directory must surface as an Error that
// names the offending file — never as UB, an OOM-sized allocation, or an
// uncontextualized bounds failure.

class AlignedCorruption : public ::testing::Test {
 protected:
  static Experiment tiny_experiment() {
    scc::Module m;
    scc::Function* main = m.add_function("main");
    {
      scc::FunctionBuilder fb(m, *main);
      fb.ret(scc::Val(i64{0}));
    }
    Experiment ex;
    ex.image = scc::compile(m);
    ex.log = "tiny";
    ex.events = make_store({{0x10, 0x20}, {}, {0x10, 0x20}});
    return ex;
  }

  /// tiny_experiment() as a multiplexed run: two counter sets, a two-entry
  /// slice table in the header and events stamped with both set ids.
  static Experiment tiny_multiplexed_experiment() {
    Experiment ex = tiny_experiment();
    CounterSpec ec;
    ec.event = HwEvent::EC_rd_miss;
    ec.interval = 1009;
    CounterSpec dc = ec;
    dc.event = HwEvent::DC_rd_miss;
    dc.set = 1;
    ex.counters = {ec, dc};
    ex.slices = {{600, 3}, {400, 2}};
    ex.total_cycles = 1000;
    ex.events = EventStore{};
    const std::vector<u64> stack = {0x10, 0x20};
    for (u64 seq = 0; seq < 4; ++seq) {
      const u8 set = static_cast<u8>(seq % 2);
      ex.events.append(/*pic=*/0, set ? dc.event : ec.event, /*weight=*/1009,
                       /*delivered_pc=*/0x1000 + seq, /*has_candidate=*/false, 0,
                       /*has_ea=*/true, /*ea=*/0x8000 + 8 * seq, stack.data(), stack.size(), seq,
                       set);
    }
    return ex;
  }

  /// Save `ex`, apply `mutate` to the bytes of `file`, and expect load() to
  /// throw an Error whose message names the file and the directory (and
  /// `what`, when given).
  static void expect_corrupt(const Experiment& ex, const char* file,
                             const std::function<void(std::vector<u8>&)>& mutate,
                             const std::string& what = "") {
    const testfix::ScopedTempDir tmp;
    const std::string dir = tmp.path("exp");
    ex.save(dir);
    std::vector<u8> bytes = read_file(dir + "/" + file);
    mutate(bytes);
    write_file(dir + "/" + file, bytes);
    try {
      Experiment::load(dir);
      FAIL() << "expected Error loading mutated " << file;
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(file), std::string::npos) << msg;
      EXPECT_NE(msg.find(dir), std::string::npos) << msg;
      EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
  }
  static void expect_corrupt(const char* file,
                             const std::function<void(std::vector<u8>&)>& mutate) {
    expect_corrupt(tiny_experiment(), file, mutate);
  }
  /// Save `ex` unmodified and expect load() to reject it.
  static void expect_rejected(const Experiment& ex, const std::string& what) {
    expect_corrupt(ex, "events.bin", [](std::vector<u8>&) {}, what);
  }
};

TEST_F(AlignedCorruption, BadMagicIsRejected) {
  expect_corrupt("events.bin", [](std::vector<u8>& b) { b[0] ^= 0xFF; });
}

TEST_F(AlignedCorruption, OldLayoutMagicsAreRejected) {
  // The retired DSPE..DSPI layouts load as a bad magic, not a misparse.
  for (const u8 letter : {'E', 'F', 'G', 'H', 'I'}) {
    expect_corrupt(tiny_experiment(), "events.bin",
                   [letter](std::vector<u8>& b) { b[0] = letter; }, "bad events.bin magic");
  }
}

TEST_F(AlignedCorruption, TruncatedHeaderIsRejected) {
  expect_corrupt("events.bin", [](std::vector<u8>& b) { b.resize(6); });
}

TEST_F(AlignedCorruption, ImplausibleCounterCountIsRejected) {
  // The 32-bit counter count sits right after the magic; a huge value must be
  // rejected by the plausibility check, not drive allocation.
  expect_corrupt("events.bin", [](std::vector<u8>& b) { b[4] = b[5] = b[6] = b[7] = 0xFF; });
}

TEST_F(AlignedCorruption, TruncatedColumnIsRejected) {
  expect_corrupt("events.bin", [](std::vector<u8>& b) { b.resize(b.size() * 3 / 4); });
}

TEST_F(AlignedCorruption, HugeColumnCountIsRejectedBeforeAllocation) {
  // The first aligned column count sits right after the header; a count far
  // beyond the bytes present must fail the overflow-safe per-column bound
  // (count <= remaining / sizeof(T)), not drive a huge allocation or an
  // out-of-bounds view.
  expect_corrupt("events.bin", [](std::vector<u8>& b) {
    // Header with zero counters and no slice table is 4 (magic) + 4 (count)
    // + 48 + 4 (slice count) = 60 bytes; the pic column count follows.
    ASSERT_GE(b.size(), 68u);
    for (size_t i = 60; i < 68; ++i) b[i] = 0xFF;
  });
}

TEST_F(AlignedCorruption, TrailingBytesAfterTrailerAreRejected) {
  expect_corrupt("events.bin", [](std::vector<u8>& b) { b.push_back(0); });
}

TEST_F(AlignedCorruption, CorruptLoadobjectsIsRejectedWithContext) {
  expect_corrupt("loadobjects.bin", [](std::vector<u8>& b) { b.resize(b.size() / 2); });
}

TEST_F(AlignedCorruption, CounterEventOutOfRangeIsRejected) {
  // Analysis::compute_scales indexes a per-metric array by the event.
  Experiment ex = tiny_experiment();
  CounterSpec c;
  c.event = static_cast<HwEvent>(machine::kNumHwEvents);
  ex.counters.push_back(c);
  expect_rejected(ex, "counter event");
}

TEST_F(AlignedCorruption, EventIdOutOfRangeIsRejected) {
  // The fold indexes per-metric arrays by each event's id.
  Experiment ex = tiny_experiment();
  ex.events.append(0, static_cast<HwEvent>(0xF0), 1, 0x1000, false, 0, false, 0, nullptr, 0, 9);
  expect_rejected(ex, "event id 240 out of range");
}

TEST_F(AlignedCorruption, ZeroPageOrLineSizeIsRejected) {
  // The page and cache-line views divide by these.
  Experiment ex = tiny_experiment();
  ex.page_size = 0;
  expect_rejected(ex, "zero page or E$ line size");
  ex = tiny_experiment();
  ex.ec_line_size = 0;
  expect_rejected(ex, "zero page or E$ line size");
}

TEST_F(AlignedCorruption, PlainRunHeaderBoundsAreKept) {
  // Without a slice table a run has at most one counter per PIC, all in
  // set 0 (the multiplexed bounds: MultiplexCollect.CorruptSliceTables*).
  CounterSpec c;
  c.event = HwEvent::EC_rd_miss;
  Experiment ex = tiny_experiment();
  ex.counters.assign(machine::kNumPics + 1, c);
  expect_rejected(ex, "implausible counter count");
  ex = tiny_experiment();
  c.set = 1;
  ex.counters = {c};
  expect_rejected(ex, "outside the 0-entry slice table");
}

TEST_F(AlignedCorruption, AlignedFormatStillRoundTripsAfterHardening) {
  const Experiment ex = tiny_experiment();
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex.save(dir);
  const Experiment back = Experiment::load(dir);
  EXPECT_TRUE(back.events.is_mapped());
  ASSERT_EQ(back.events.size(), ex.events.size());
  for (size_t i = 0; i < ex.events.size(); ++i) {
    EXPECT_TRUE(back.events.callstack(i) == ex.events.callstack(i));
  }
}

// The same corruptions over a multiplexed run, whose header carries a slice
// table and whose set column is not all zero: one fixture, both shapes of
// the one events.bin layout.
using ExperimentCorruption = AlignedCorruption;

TEST_F(ExperimentCorruption, BadMagicIsRejected) {
  expect_corrupt(tiny_multiplexed_experiment(), "events.bin",
                 [](std::vector<u8>& b) { b[0] ^= 0xFF; }, "bad events.bin magic");
}

TEST_F(ExperimentCorruption, TruncatedHeaderIsRejected) {
  // Cut the file inside the last slice-table entry, the header's last field.
  const Experiment ex = tiny_multiplexed_experiment();
  ByteWriter header;
  put_run_header(header, ex);
  const size_t header_end = 4 + header.bytes().size();  // magic + run header
  expect_corrupt(ex, "events.bin", [header_end](std::vector<u8>& b) {
    ASSERT_GT(b.size(), header_end);
    b.resize(header_end - 8);
  });
}

TEST_F(ExperimentCorruption, ImplausibleCounterCountIsRejected) {
  // One counter more than there are event types is already implausible,
  // however many sets a multiplexed run has.
  expect_corrupt(tiny_multiplexed_experiment(), "events.bin",
                 [](std::vector<u8>& b) {
                   const auto n = static_cast<u32>(machine::kNumHwEvents + 1);
                   std::memcpy(b.data() + 4, &n, sizeof n);
                 },
                 "implausible counter count");
}

TEST_F(ExperimentCorruption, TruncatedColumnIsRejected) {
  expect_corrupt(tiny_multiplexed_experiment(), "events.bin",
                 [](std::vector<u8>& b) { b.resize(b.size() * 3 / 4); });
}

TEST_F(ExperimentCorruption, TrailingBytesAfterTrailerAreRejected) {
  expect_corrupt(tiny_multiplexed_experiment(), "events.bin",
                 [](std::vector<u8>& b) { b.push_back(0); }, "trailing byte");
}

TEST_F(ExperimentCorruption, CorruptLoadobjectsIsRejectedWithContext) {
  expect_corrupt(tiny_multiplexed_experiment(), "loadobjects.bin",
                 [](std::vector<u8>& b) { b.resize(b.size() / 2); });
}

TEST_F(ExperimentCorruption, BothFormatsStillRoundTripAfterHardening) {
  // A plain and a multiplexed run: the two shapes events.bin stores.
  const testfix::ScopedTempDir tmp;
  for (const Experiment& ex : {tiny_experiment(), tiny_multiplexed_experiment()}) {
    const std::string dir = tmp.path("exp");
    ex.save(dir);
    const Experiment back = Experiment::load(dir);
    ASSERT_EQ(back.slices.size(), ex.slices.size());
    ASSERT_EQ(back.counters.size(), ex.counters.size());
    for (size_t i = 0; i < ex.counters.size(); ++i) {
      EXPECT_EQ(back.counters[i].set, ex.counters[i].set);
    }
    ASSERT_EQ(back.events.size(), ex.events.size());
    for (size_t i = 0; i < ex.events.size(); ++i) {
      EXPECT_TRUE(back.events.callstack(i) == ex.events.callstack(i));
      EXPECT_EQ(back.events[i].set, ex.events[i].set);
    }
  }
}

/// Build aligned EventStore bytes with hand-written columns (count, pad to
/// 8, raw bytes — the serialize_aligned layout) so hostile handles can be
/// injected. Each set of columns below is decoded twice: from a heap buffer,
/// the path a wire EventBatch takes (EventStoreCorruption), and from a mapped
/// file, the path Experiment::load takes (AlignedCorruption2).
template <typename T>
void put_aligned_col(ByteWriter& w, const std::vector<T>& col) {
  w.put_u64(col.size());
  w.align_to(8);
  w.put_raw(col.data(), col.size() * sizeof(T));
}

void out_of_range_handle_columns(ByteWriter& w) {
  put_aligned_col<u8>(w, {0});        // pic
  put_aligned_col<u8>(w, {3});        // event
  put_aligned_col<u64>(w, {1});       // weight
  put_aligned_col<u64>(w, {0x1000});  // delivered_pc
  put_aligned_col<u8>(w, {0});        // flags
  put_aligned_col<u64>(w, {0});       // candidate_pc
  put_aligned_col<u64>(w, {0});       // ea
  put_aligned_col<u64>(w, {0});       // seq
  put_aligned_col<u64>(w, {4});       // cs_offset: outside the 1-word arena
  put_aligned_col<u32>(w, {2});       // cs_len
  put_aligned_col<u64>(w, {0xdead});  // arena (1 word)
  put_aligned_col<u8>(w, {0});        // set
}

void wrapping_handle_columns(ByteWriter& w) {
  put_aligned_col<u8>(w, {0});
  put_aligned_col<u8>(w, {3});
  put_aligned_col<u64>(w, {1});
  put_aligned_col<u64>(w, {0x1000});
  put_aligned_col<u8>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u64>(w, {~u64{0}});  // cs_offset near 2^64: offset+len wraps
  put_aligned_col<u32>(w, {8});
  put_aligned_col<u64>(w, {0xdead});
  put_aligned_col<u8>(w, {0});
}

void inconsistent_length_columns(ByteWriter& w) {
  put_aligned_col<u8>(w, {0, 0});  // pic: two rows
  put_aligned_col<u8>(w, {3});     // every other column: one row
  put_aligned_col<u64>(w, {1});
  put_aligned_col<u64>(w, {0x1000});
  put_aligned_col<u8>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u64>(w, {0});
  put_aligned_col<u32>(w, {0});
  put_aligned_col<u64>(w, {});
  put_aligned_col<u8>(w, {0});
}

void expect_in_memory_rejects(const std::function<void(ByteWriter&)>& write_columns) {
  ByteWriter w;
  write_columns(w);
  const auto bytes = std::make_shared<const std::vector<u8>>(w.take());
  ByteReader r(*bytes);
  EXPECT_THROW(EventStore::deserialize_aligned(r, bytes), Error);
}

void expect_mapped_rejects(const std::function<void(ByteWriter&)>& write_columns) {
  ByteWriter w;
  write_columns(w);
  const testfix::ScopedTempDir tmp;
  const std::string path = tmp.path("events.bin");
  write_file(path, w.bytes());
  const auto mf = MappedFile::open(path);
  ByteReader r(mf->data(), mf->size());
  EXPECT_THROW(EventStore::deserialize_aligned(r, mf), Error);
}

TEST(EventStoreCorruption, OutOfRangeArenaHandleIsRejected) {
  expect_in_memory_rejects(out_of_range_handle_columns);
}

TEST(EventStoreCorruption, WrappingArenaHandleIsRejected) {
  expect_in_memory_rejects(wrapping_handle_columns);
}

TEST(EventStoreCorruption, InconsistentColumnLengthsAreRejected) {
  expect_in_memory_rejects(inconsistent_length_columns);
}

TEST(AlignedCorruption2, OutOfRangeArenaHandleIsRejectedByMappedValidation) {
  expect_mapped_rejects(out_of_range_handle_columns);
}

TEST(AlignedCorruption2, WrappingArenaHandleIsRejectedByMappedValidation) {
  expect_mapped_rejects(wrapping_handle_columns);
}

TEST(AlignedCorruption2, InconsistentColumnLengthsAreRejectedByMappedValidation) {
  expect_mapped_rejects(inconsistent_length_columns);
}

// --- experiment round trips --------------------------------------------------

class StoreRoundTrip : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Scale the caches below the working set so E$ events actually fire.
    machine::CpuConfig cfg;
    cfg.hierarchy.dcache = {4 * 1024, 4, 32, false};
    cfg.hierarchy.ecache = {32 * 1024, 2, 512, true};
    cfg.hierarchy.dtlb = {8, 2, 8 * 1024};
    auto m = testfix::make_chase_module(2000, 6, 4096);
    image_ = new sym::Image(scc::compile(*m));
    ex_ = new Experiment(
        testfix::quick_collect(*image_, "+ecstall,1009,+ecrm,97", "hi", cfg));
    ASSERT_GT(ex_->events.size(), 100u);
  }
  static void TearDownTestSuite() {
    delete ex_;
    delete image_;
    ex_ = nullptr;
    image_ = nullptr;
  }
  static void expect_same_events(const Experiment& x, const Experiment& y) {
    ASSERT_EQ(x.events.size(), y.events.size());
    for (size_t i = 0; i < x.events.size(); ++i) {
      const EventView a = x.events[i], b = y.events[i];
      ASSERT_EQ(a.pic, b.pic) << "event " << i;
      ASSERT_EQ(a.event, b.event) << "event " << i;
      ASSERT_EQ(a.weight, b.weight) << "event " << i;
      ASSERT_EQ(a.delivered_pc, b.delivered_pc) << "event " << i;
      ASSERT_EQ(a.has_candidate, b.has_candidate) << "event " << i;
      ASSERT_EQ(a.candidate_pc, b.candidate_pc) << "event " << i;
      ASSERT_EQ(a.has_ea, b.has_ea) << "event " << i;
      ASSERT_EQ(a.ea, b.ea) << "event " << i;
      ASSERT_TRUE(a.callstack == b.callstack) << "event " << i;
      ASSERT_EQ(a.seq, b.seq) << "event " << i;
    }
  }
  static sym::Image* image_;
  static Experiment* ex_;
};
sym::Image* StoreRoundTrip::image_ = nullptr;
Experiment* StoreRoundTrip::ex_ = nullptr;

u32 events_magic(const std::string& dir) {
  const std::vector<u8> bytes = read_file(dir + "/events.bin");
  ByteReader r(bytes);
  return r.get_u32();
}

// --- reduction determinism ---------------------------------------------------

std::string all_views(analyze::Analysis& a) {
  const size_t m = static_cast<size_t>(machine::HwEvent::EC_rd_miss);
  std::string s;
  s += analyze::render_overview(a);
  s += analyze::render_function_list(a);
  s += analyze::render_hot_pcs(a, m);
  s += analyze::render_data_objects(a, m);
  s += analyze::render_member_expansion(a, "pair");
  s += analyze::render_annotated_source(a, "walk_list");
  s += analyze::render_annotated_disassembly(a, "walk_list");
  s += analyze::render_callers_callees(a, "walk_list");
  s += analyze::render_effectiveness(a);
  s += analyze::render_segments(a);
  s += analyze::render_pages(a, m);
  s += analyze::render_cache_lines(a, m);
  s += analyze::render_instances(a, m);
  return s;
}

TEST_F(StoreRoundTrip, ShardedMatchesSeedEquivalentBaselineEngine) {
  // Reduction::run (IncrementalReducer folds + merge_results) against the
  // seed's serial std::map fold.
  analyze::Analysis ab(*ex_, oracle::reduce({ex_}));
  analyze::Analysis as(*ex_);
  EXPECT_EQ(all_views(ab), all_views(as));
  EXPECT_EQ(ab.total(), as.total());
  EXPECT_EQ(ab.data_total(), as.data_total());
  EXPECT_EQ(ab.result().events_reduced, as.result().events_reduced);
  EXPECT_EQ(ab.result().sample_counts, as.result().sample_counts);
}

// --- zero-copy aligned layout + mapped loading -------------------------------

TEST_F(StoreRoundTrip, AlignedFormatIsTheDefaultAndRoundTripsZeroCopy) {
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex_->save(dir);
  EXPECT_EQ(events_magic(dir), 0x4453504Au);  // 'DSPJ', the only layout
  const Experiment back = Experiment::load(dir);
  EXPECT_TRUE(back.events.is_mapped());
  expect_same_events(*ex_, back);
  EXPECT_EQ(back.events.unique_callstacks(), ex_->events.unique_callstacks());
  EXPECT_EQ(back.total_cycles, ex_->total_cycles);
  EXPECT_EQ(back.allocations, ex_->allocations);  // site PCs survive
  // The mapped store feeds the analyzer exactly as the in-memory one does.
  EXPECT_EQ(analyze::render_json_report(analyze::Analysis(back)),
            analyze::render_json_report(analyze::Analysis(*ex_)));
}

TEST_F(StoreRoundTrip, MappedStoreIsFrozenAndRefusesAppend) {
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex_->save(dir);
  Experiment back = Experiment::load(dir);
  ASSERT_TRUE(back.events.is_mapped());
  const u64 pc = 0x1000;
  EXPECT_THROW(back.events.append(0, machine::HwEvent::EC_rd_miss, 1, pc, false, 0, false,
                                  0, nullptr, 0, 0),
               Error);
  // A mapped store can still be copied into a live one, re-interning.
  EventStore live;
  live.append_range(back.events, 0, back.events.size());
  EXPECT_EQ(live.size(), back.events.size());
  EXPECT_EQ(live.unique_callstacks(), back.events.unique_callstacks());
}

TEST_F(StoreRoundTrip, SerializeRangeMatchesAppendRangeSlice) {
  const auto& ev = ex_->events;
  ASSERT_GT(ev.size(), 50u);
  std::mt19937_64 rng(7);
  for (int iter = 0; iter < 8; ++iter) {
    const size_t begin = rng() % ev.size();
    const size_t end = begin + rng() % (ev.size() - begin + 1);
    ByteWriter w;
    ev.serialize_range_aligned(w, begin, end);
    const auto bytes = std::make_shared<const std::vector<u8>>(w.take());
    ByteReader r(*bytes);
    const EventStore got = EventStore::deserialize_aligned(r, bytes);
    ASSERT_TRUE(r.at_end());
    EventStore want;
    want.append_range(ev, begin, end);
    ASSERT_EQ(got.size(), want.size()) << "[" << begin << "," << end << ")";
    for (size_t i = 0; i < got.size(); ++i) {
      const EventView a = got[i], b = want[i];
      ASSERT_EQ(a.pic, b.pic);
      ASSERT_EQ(a.weight, b.weight);
      ASSERT_EQ(a.delivered_pc, b.delivered_pc);
      ASSERT_EQ(a.candidate_pc, b.candidate_pc);
      ASSERT_EQ(a.ea, b.ea);
      ASSERT_EQ(a.seq, b.seq);
      ASSERT_EQ(a.set, b.set);
      ASSERT_TRUE(a.callstack == b.callstack) << "event " << i;
    }
    EXPECT_EQ(got.unique_callstacks(), want.unique_callstacks());
  }
}

// --- oracle equivalence -----------------------------------------------------

TEST_F(StoreRoundTrip, RadixMatchesOnMappedExperiments) {
  // The fast path end to end: an experiment loaded through mapped views,
  // reduced by the radix fold, must render exactly what the oracle produces
  // over the owning store.
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex_->save(dir);
  const Experiment mapped = Experiment::load(dir);
  ASSERT_TRUE(mapped.events.is_mapped());
  analyze::Analysis ar(mapped), ab(*ex_, oracle::reduce({ex_}));
  EXPECT_EQ(all_views(ar), all_views(ab));
}

// --- oracle equivalence as a property over random stores ---------------------

TEST_F(StoreRoundTrip, EnginesAgreeOnRandomStoresAndThreadCounts) {
  // Fuzz the fold inputs, not just one collected workload: random events
  // (valid and wild PCs, random flags/EAs, stacks drawn from a small pool
  // so interning kicks in), reduced by Reduction::run and split into 1 and
  // 3 contiguous segments (one reducer each, merged in order) — every
  // rendered view must be byte-identical to the std::map oracle's.
  std::mt19937_64 rng(0xC0FFEE);
  const u64 text_lo = 0x1000, text_hi = 0x1000 + 8 * 1024;
  const auto rand_pc = [&]() -> u64 {
    switch (rng() % 4) {
      case 0: return text_lo + (rng() % ((text_hi - text_lo) / 4)) * 4;  // in text
      case 1: return rng();                                              // wild
      case 2: return 0;
      default: return text_hi + rng() % 4096;  // just past the image
    }
  };
  std::vector<u64> pool(16);
  for (auto& p : pool) p = rand_pc();

  for (int round = 0; round < 3; ++round) {
    Experiment ex;
    ex.image = *StoreRoundTrip::image_;
    ex.counters = ex_->counters;
    ex.clock_interval = ex_->clock_interval;
    ex.clock_hz = ex_->clock_hz;
    const size_t n = 500 + rng() % 1500;
    std::vector<u64> stack;
    for (size_t i = 0; i < n; ++i) {
      const unsigned pic = rng() % 3;  // 0, 1, or the clock pic
      const machine::HwEvent event =
          pic == 2 ? machine::HwEvent::Cycle_cnt : ex.counters[pic].event;
      stack.clear();
      const size_t depth = rng() % 5;
      for (size_t d = 0; d < depth; ++d) stack.push_back(pool[rng() % pool.size()]);
      const bool has_candidate = rng() % 2 != 0;
      const bool has_ea = has_candidate && rng() % 2 != 0;
      ex.events.append(pic, event, 1 + rng() % 10000, rand_pc(), has_candidate, rand_pc(),
                       has_ea, rng() % (1u << 30), stack.data(), stack.size(), i);
    }

    const std::string want =
        analyze::render_json_report(analyze::Analysis(ex, oracle::reduce({&ex})));
    EXPECT_EQ(analyze::render_json_report(analyze::Analysis(ex)), want) << "round " << round;

    for (const size_t threads : {size_t{1}, size_t{3}}) {
      std::vector<analyze::IncrementalReducer> shards;
      std::vector<const analyze::ReductionResult*> parts;
      shards.reserve(threads);
      for (size_t s = 0; s < threads; ++s) {
        shards.emplace_back(ex.image.symtab, ex.counters);
        shards.back().fold(ex.events, n * s / threads, n * (s + 1) / threads);
        parts.push_back(&shards.back().result());
      }
      EXPECT_EQ(
          analyze::render_json_report(analyze::Analysis(ex, analyze::merge_results(parts))),
          want)
          << "round " << round << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace dsprof::experiment

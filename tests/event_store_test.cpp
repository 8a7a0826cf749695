// Columnar EventStore: callstack-arena interning, save/load round trips in
// all three on-disk layouts (including the zero-copy mmap'd DSPG path), and
// bit-identity of the product reduction against the seed-equivalent
// std::map oracle (tests/reduce_oracle.hpp) on collected and random stores
// and across the mapped-vs-streamed loaders.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
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

TEST(EventStore, SerializeRoundTripPreservesEverything) {
  const std::vector<u64> a = {1, 2, 3}, b = {9};
  EventStore s = make_store({a, b, a, {}, b});
  ByteWriter w;
  s.serialize(w);
  ByteReader r(w.bytes());
  const EventStore back = EventStore::deserialize(r);
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
  }
  // A deserialized store keeps interning: appending a known stack reuses it.
  EventStore back2 = back;
  back2.append(0, HwEvent::EC_rd_miss, 1, 1, false, 0, false, 0, a.data(), a.size(), 99);
  EXPECT_EQ(back2.unique_callstacks(), back.unique_callstacks());
  EXPECT_EQ(back2.arena_words(), back.arena_words());
}

TEST(EventStore, TruncatedStreamIsRejected) {
  EventStore s = make_store({{1, 2}, {3}});
  ByteWriter w;
  s.serialize(w);
  std::vector<u8> bytes = w.bytes();
  bytes.resize(bytes.size() / 2);
  ByteReader r(bytes);
  EXPECT_THROW(EventStore::deserialize(r), Error);
}

// --- corruption robustness ---------------------------------------------------
// A truncated or corrupt experiment directory must surface as an Error that
// names the offending file — never as UB, an OOM-sized allocation, or an
// uncontextualized bounds failure.

template <typename T>
void put_col(ByteWriter& w, const std::vector<T>& col) {
  w.put_u64(col.size());
  w.put_blob(col.data(), col.size() * sizeof(T));
}

TEST(EventStoreCorruption, OutOfRangeArenaHandleIsRejected) {
  ByteWriter w;
  put_col<u8>(w, {0});        // pic
  put_col<u8>(w, {3});        // event
  put_col<u64>(w, {1});       // weight
  put_col<u64>(w, {0x1000});  // delivered_pc
  put_col<u8>(w, {0});        // flags
  put_col<u64>(w, {0});       // candidate_pc
  put_col<u64>(w, {0});       // ea
  put_col<u64>(w, {0});       // seq
  put_col<u64>(w, {4});       // cs_offset: outside the 1-word arena below
  put_col<u32>(w, {2});       // cs_len
  put_col<u64>(w, {0xdead});  // arena (1 word)
  ByteReader r(w.bytes());
  EXPECT_THROW(EventStore::deserialize(r), Error);
}

TEST(EventStoreCorruption, WrappingArenaHandleIsRejected) {
  // offset + len wraps past 2^64: the overflow-safe form must still reject.
  ByteWriter w;
  put_col<u8>(w, {0});
  put_col<u8>(w, {3});
  put_col<u64>(w, {1});
  put_col<u64>(w, {0x1000});
  put_col<u8>(w, {0});
  put_col<u64>(w, {0});
  put_col<u64>(w, {0});
  put_col<u64>(w, {0});
  put_col<u64>(w, {~u64{0}});  // cs_offset near 2^64
  put_col<u32>(w, {8});        // cs_len: offset + len wraps
  put_col<u64>(w, {0xdead});
  ByteReader r(w.bytes());
  EXPECT_THROW(EventStore::deserialize(r), Error);
}

TEST(EventStoreCorruption, InconsistentColumnLengthsAreRejected) {
  ByteWriter w;
  put_col<u8>(w, {0, 0});  // pic: two rows
  put_col<u8>(w, {3});     // every other column: one row
  put_col<u64>(w, {1});
  put_col<u64>(w, {0x1000});
  put_col<u8>(w, {0});
  put_col<u64>(w, {0});
  put_col<u64>(w, {0});
  put_col<u64>(w, {0});
  put_col<u64>(w, {0});
  put_col<u32>(w, {0});
  put_col<u64>(w, {});
  ByteReader r(w.bytes());
  EXPECT_THROW(EventStore::deserialize(r), Error);
}

class ExperimentCorruption : public ::testing::Test {
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

  /// Save `ex`, apply `mutate` to the bytes of `file`, and expect load() to
  /// throw an Error whose message names the file and the directory.
  static void expect_corrupt(const Experiment& ex, FileFormat fmt, const char* file,
                             const std::function<void(std::vector<u8>&)>& mutate) {
    const testfix::ScopedTempDir tmp;
    const std::string dir = tmp.path("exp");
    ex.save(dir, fmt);
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
    }
  }
};

TEST_F(ExperimentCorruption, BadMagicIsRejected) {
  expect_corrupt(tiny_experiment(), FileFormat::Columnar, "events.bin",
                 [](std::vector<u8>& b) { b[0] ^= 0xFF; });
}

TEST_F(ExperimentCorruption, TruncatedHeaderIsRejected) {
  expect_corrupt(tiny_experiment(), FileFormat::Columnar, "events.bin",
                 [](std::vector<u8>& b) { b.resize(6); });
}

TEST_F(ExperimentCorruption, ImplausibleCounterCountIsRejected) {
  // The 32-bit counter count sits right after the magic; a huge value must be
  // rejected by the plausibility check, not drive allocation.
  for (const FileFormat fmt : {FileFormat::Columnar, FileFormat::Legacy}) {
    expect_corrupt(tiny_experiment(), fmt, "events.bin", [](std::vector<u8>& b) {
      b[4] = b[5] = b[6] = b[7] = 0xFF;
    });
  }
}

TEST_F(ExperimentCorruption, TruncatedColumnIsRejected) {
  expect_corrupt(tiny_experiment(), FileFormat::Columnar, "events.bin",
                 [](std::vector<u8>& b) { b.resize(b.size() * 3 / 4); });
}

TEST_F(ExperimentCorruption, TruncatedLegacyEventsAreRejected) {
  expect_corrupt(tiny_experiment(), FileFormat::Legacy, "events.bin",
                 [](std::vector<u8>& b) { b.resize(b.size() * 3 / 4); });
}

TEST_F(ExperimentCorruption, HugeLegacyEventCountIsRejectedBeforeAllocation) {
  // Header with zero counters is 52 bytes; the legacy event count follows at
  // offset 56. A count far beyond the bytes present must fail the
  // min-record-size plausibility check (and must not reserve gigabytes).
  expect_corrupt(tiny_experiment(), FileFormat::Legacy, "events.bin",
                 [](std::vector<u8>& b) {
                   ASSERT_GE(b.size(), 60u);
                   b[56] = 0xFF;
                   b[57] = 0xFF;
                   b[58] = 0xFF;
                   b[59] = 0x7F;
                 });
}

TEST_F(ExperimentCorruption, TrailingBytesAfterTrailerAreRejected) {
  expect_corrupt(tiny_experiment(), FileFormat::Columnar, "events.bin",
                 [](std::vector<u8>& b) { b.push_back(0); });
}

TEST_F(ExperimentCorruption, CorruptLoadobjectsIsRejectedWithContext) {
  expect_corrupt(tiny_experiment(), FileFormat::Columnar, "loadobjects.bin",
                 [](std::vector<u8>& b) { b.resize(b.size() / 2); });
}

TEST_F(ExperimentCorruption, BothFormatsStillRoundTripAfterHardening) {
  const Experiment ex = tiny_experiment();
  const testfix::ScopedTempDir tmp;
  for (const FileFormat fmt : {FileFormat::Columnar, FileFormat::Legacy}) {
    const std::string dir = tmp.path("exp");
    ex.save(dir, fmt);
    const Experiment back = Experiment::load(dir);
    ASSERT_EQ(back.events.size(), ex.events.size());
    for (size_t i = 0; i < ex.events.size(); ++i) {
      EXPECT_TRUE(back.events.callstack(i) == ex.events.callstack(i));
    }
  }
}

// --- corruption hardening over the zero-copy aligned layout ------------------
// Every mutation above must also be rejected by the DSPG path — both by the
// mmap'd view validation (DSPROF_MMAP unset) and by the stream fallback
// (DSPROF_MMAP=0). RAII env guard so a failing assertion cannot leak the
// override into later tests.

class ScopedMmapEnv {
 public:
  explicit ScopedMmapEnv(const char* value) {
    const char* old = std::getenv("DSPROF_MMAP");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) unsetenv("DSPROF_MMAP");
    else setenv("DSPROF_MMAP", value, 1);
  }
  ~ScopedMmapEnv() {
    if (had_old_) setenv("DSPROF_MMAP", old_.c_str(), 1);
    else unsetenv("DSPROF_MMAP");
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

class AlignedCorruption : public ExperimentCorruption {
 protected:
  static void expect_corrupt_both_loaders(
      const char* file, const std::function<void(std::vector<u8>&)>& mutate) {
    for (const char* mm : {static_cast<const char*>(nullptr), "0"}) {
      const ScopedMmapEnv env(mm);
      expect_corrupt(tiny_experiment(), FileFormat::ColumnarAligned, file, mutate);
    }
  }
};

TEST_F(AlignedCorruption, BadMagicIsRejected) {
  expect_corrupt_both_loaders("events.bin", [](std::vector<u8>& b) { b[0] ^= 0xFF; });
}

TEST_F(AlignedCorruption, TruncatedHeaderIsRejected) {
  expect_corrupt_both_loaders("events.bin", [](std::vector<u8>& b) { b.resize(6); });
}

TEST_F(AlignedCorruption, ImplausibleCounterCountIsRejected) {
  expect_corrupt_both_loaders("events.bin", [](std::vector<u8>& b) {
    b[4] = b[5] = b[6] = b[7] = 0xFF;
  });
}

TEST_F(AlignedCorruption, TruncatedColumnIsRejected) {
  expect_corrupt_both_loaders("events.bin",
                              [](std::vector<u8>& b) { b.resize(b.size() * 3 / 4); });
}

TEST_F(AlignedCorruption, HugeColumnCountIsRejectedBeforeAllocation) {
  // The first aligned column count sits right after the header; a count far
  // beyond the bytes present must fail the overflow-safe per-column bound
  // (count <= remaining / sizeof(T)), not drive a huge allocation or an
  // out-of-bounds view.
  expect_corrupt_both_loaders("events.bin", [](std::vector<u8>& b) {
    // Header with zero counters is 4 (magic) + 4 (count) + 48 = 56 bytes;
    // the pic column count follows.
    ASSERT_GE(b.size(), 64u);
    for (size_t i = 56; i < 64; ++i) b[i] = 0xFF;
  });
}

TEST_F(AlignedCorruption, TrailingBytesAfterTrailerAreRejected) {
  expect_corrupt_both_loaders("events.bin", [](std::vector<u8>& b) { b.push_back(0); });
}

TEST_F(AlignedCorruption, CorruptLoadobjectsIsRejectedWithContext) {
  expect_corrupt_both_loaders("loadobjects.bin",
                              [](std::vector<u8>& b) { b.resize(b.size() / 2); });
}

TEST_F(AlignedCorruption, AlignedFormatStillRoundTripsAfterHardening) {
  const Experiment ex = tiny_experiment();
  const testfix::ScopedTempDir tmp;
  for (const char* mm : {static_cast<const char*>(nullptr), "0"}) {
    const ScopedMmapEnv env(mm);
    const std::string dir = tmp.path("exp");
    ex.save(dir, FileFormat::ColumnarAligned);
    const Experiment back = Experiment::load(dir);
    ASSERT_EQ(back.events.size(), ex.events.size());
    for (size_t i = 0; i < ex.events.size(); ++i) {
      EXPECT_TRUE(back.events.callstack(i) == ex.events.callstack(i));
    }
    // The zero-copy loader produces a frozen mapped store; the stream
    // fallback produces a live owning one. Same contents either way.
    EXPECT_EQ(back.events.is_mapped(), mm == nullptr);
  }
}

/// Build aligned EventStore bytes with hand-written columns (count, pad to
/// 8, raw bytes — the serialize_aligned layout) so hostile handles can be
/// injected, then run them through the real mmap path via a temp file.
template <typename T>
void put_aligned_col(ByteWriter& w, const std::vector<T>& col) {
  w.put_u64(col.size());
  w.align_to(8);
  w.put_raw(col.data(), col.size() * sizeof(T));
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

TEST(AlignedCorruption2, OutOfRangeArenaHandleIsRejectedByMappedValidation) {
  expect_mapped_rejects([](ByteWriter& w) {
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
  });
}

TEST(AlignedCorruption2, WrappingArenaHandleIsRejectedByMappedValidation) {
  expect_mapped_rejects([](ByteWriter& w) {
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
  });
}

TEST(AlignedCorruption2, InconsistentColumnLengthsAreRejectedByMappedValidation) {
  expect_mapped_rejects([](ByteWriter& w) {
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
  });
}

// --- experiment round trips in both on-disk layouts -------------------------

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

TEST_F(StoreRoundTrip, ColumnarFormatRoundTrips) {
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex_->save(dir, FileFormat::Columnar);
  EXPECT_EQ(events_magic(dir), 0x44535046u);  // 'DSPF'
  const Experiment back = Experiment::load(dir);
  expect_same_events(*ex_, back);
  EXPECT_EQ(back.events.unique_callstacks(), ex_->events.unique_callstacks());
  EXPECT_EQ(back.total_cycles, ex_->total_cycles);
  // DSPF predates allocation-site PCs: addr/size round-trip, site loads as 0.
  ASSERT_EQ(back.allocations.size(), ex_->allocations.size());
  for (size_t i = 0; i < back.allocations.size(); ++i) {
    EXPECT_EQ(back.allocations[i].addr, ex_->allocations[i].addr);
    EXPECT_EQ(back.allocations[i].size, ex_->allocations[i].size);
    EXPECT_EQ(back.allocations[i].site_pc, 0u);
  }
}

TEST_F(StoreRoundTrip, LegacyFormatRoundTripsAndAgreesWithColumnar) {
  // The seed's row-oriented layout must load into the same events (and the
  // loader re-interns, so dedup statistics match the in-memory store).
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("legacy");
  ex_->save(dir, FileFormat::Legacy);
  EXPECT_EQ(events_magic(dir), 0x44535045u);  // 'DSPE'
  const Experiment back = Experiment::load(dir);
  expect_same_events(*ex_, back);
  EXPECT_EQ(back.events.unique_callstacks(), ex_->events.unique_callstacks());
  // Both layouts feed the analyzer identically.
  ex_->save(tmp.path("columnar"), FileFormat::Columnar);
  const Experiment col = Experiment::load(tmp.path("columnar"));
  analyze::Analysis al(back), ac(col);
  EXPECT_EQ(analyze::render_overview(al), analyze::render_overview(ac));
  EXPECT_EQ(analyze::render_data_objects(al, analyze::kUserCpuMetric),
            analyze::render_data_objects(ac, analyze::kUserCpuMetric));
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
  // Reduction::run (per-shard IncrementalReducer folds + merge_results)
  // against the seed's serial std::map fold.
  analyze::Analysis ab(*ex_, oracle::reduce({ex_}));
  analyze::Analysis as(*ex_);
  EXPECT_EQ(all_views(ab), all_views(as));
  EXPECT_EQ(ab.total(), as.total());
  EXPECT_EQ(ab.data_total(), as.data_total());
  EXPECT_EQ(ab.reduce().events_reduced, as.reduce().events_reduced);
  EXPECT_EQ(ab.reduce().sample_counts, as.reduce().sample_counts);
}

// --- zero-copy aligned layout + mmap loading ---------------------------------

TEST_F(StoreRoundTrip, AlignedFormatIsTheDefaultAndRoundTripsZeroCopy) {
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex_->save(dir);  // default format
  EXPECT_EQ(events_magic(dir), 0x44535047u);  // 'DSPG'
  const Experiment back = Experiment::load(dir);
  EXPECT_TRUE(back.events.is_mapped());
  EXPECT_TRUE(back.events.is_frozen());
  expect_same_events(*ex_, back);
  EXPECT_EQ(back.events.unique_callstacks(), ex_->events.unique_callstacks());
  EXPECT_EQ(back.total_cycles, ex_->total_cycles);
  EXPECT_EQ(back.allocations, ex_->allocations);  // site PCs survive DSPG
}

TEST_F(StoreRoundTrip, MappedAndStreamedLoadsAgree) {
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex_->save(dir, FileFormat::ColumnarAligned);
  const Experiment mapped = Experiment::load(dir);
  ASSERT_TRUE(mapped.events.is_mapped());
  Experiment streamed;
  {
    const ScopedMmapEnv env("0");
    streamed = Experiment::load(dir);
  }
  ASSERT_FALSE(streamed.events.is_mapped());
  expect_same_events(mapped, streamed);
  EXPECT_EQ(mapped.events.unique_callstacks(), streamed.events.unique_callstacks());
  // Both loaders feed the analyzer identically — and identically to the
  // original in-memory experiment.
  analyze::Analysis am(mapped), as(streamed), ao(*ex_);
  EXPECT_EQ(analyze::render_json_report(am), analyze::render_json_report(as));
  EXPECT_EQ(analyze::render_json_report(am), analyze::render_json_report(ao));
}

TEST_F(StoreRoundTrip, MappedStoreIsFrozenAndRefusesAppend) {
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex_->save(dir, FileFormat::ColumnarAligned);
  Experiment back = Experiment::load(dir);
  ASSERT_TRUE(back.events.is_frozen());
  const u64 pc = 0x1000;
  EXPECT_THROW(back.events.append(0, machine::HwEvent::EC_rd_miss, 1, pc, false, 0, false,
                                  0, nullptr, 0, 0),
               Error);
  // A frozen store can still be copied into a live one, re-interning.
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
    ev.serialize_range(w, begin, end);
    ByteReader r(w.bytes());
    const EventStore got = EventStore::deserialize(r);
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
      ASSERT_TRUE(a.callstack == b.callstack) << "event " << i;
    }
    EXPECT_EQ(got.unique_callstacks(), want.unique_callstacks());
  }
}

// --- oracle equivalence -----------------------------------------------------

TEST_F(StoreRoundTrip, RadixMatchesOnMappedExperiments) {
  // The fast path end to end: a DSPG experiment loaded through mmap views,
  // reduced by the radix fold, must render exactly what the oracle produces
  // over the owning store.
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex_->save(dir, FileFormat::ColumnarAligned);
  const Experiment mapped = Experiment::load(dir);
  ASSERT_TRUE(mapped.events.is_mapped());
  analyze::Analysis ar(mapped), ab(*ex_, oracle::reduce({ex_}));
  EXPECT_EQ(all_views(ar), all_views(ab));
}

// --- oracle equivalence as a property over random stores ---------------------

TEST_F(StoreRoundTrip, EnginesAgreeOnRandomStoresAndThreadCounts) {
  // Fuzz the fold inputs, not just one collected workload: random events
  // (valid and wild PCs, random flags/EAs, stacks drawn from a small pool
  // so interning kicks in), reduced by Reduction::run and in the shard
  // layout it uses with 1 and 3 workers (contiguous segments, one reducer
  // each, merged in order) — every rendered view must be byte-identical to
  // the std::map oracle's.
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

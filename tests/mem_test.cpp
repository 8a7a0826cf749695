#include <gtest/gtest.h>

#include "mem/memory.hpp"

namespace dsprof::mem {
namespace {

void setup_mem(Memory& m) {

  m.add_segment({"text", SegKind::Text, kTextBase, 0x1000, false, true});
  m.add_segment({"data", SegKind::Data, kDataBase, 0x1000, true, false});
  m.add_segment({"heap", SegKind::Heap, kHeapBase, 0x100000, true, false});
  m.add_segment({"stack", SegKind::Stack, kStackTop - kStackSize, kStackSize + 0x4000, true,
                 false});

}

TEST(Memory, LoadStoreRoundTrip) {
  Memory m;
  setup_mem(m);
  m.store(kHeapBase + 64, 8, 0x1122334455667788ull);
  EXPECT_EQ(m.load(kHeapBase + 64, 8), 0x1122334455667788ull);
  m.store(kHeapBase + 128, 4, 0xCAFEBABEull);
  EXPECT_EQ(m.load(kHeapBase + 128, 4), 0xCAFEBABEull);
  m.store(kHeapBase + 200, 1, 0xAB);
  EXPECT_EQ(m.load(kHeapBase + 200, 1), 0xABull);
}

TEST(Memory, ZeroInitialized) {
  Memory m;
  setup_mem(m);
  EXPECT_EQ(m.load(kHeapBase + 0x8000, 8), 0u);
}

TEST(Memory, LittleEndianBytes) {
  Memory m;
  setup_mem(m);
  m.store(kDataBase, 8, 0x0102030405060708ull);
  EXPECT_EQ(m.load(kDataBase, 1), 0x08u);
  EXPECT_EQ(m.load(kDataBase + 7, 1), 0x01u);
}

TEST(Memory, UnmappedFaults) {
  Memory m;
  setup_mem(m);
  EXPECT_THROW(m.load(0x999, 8), Error);
  EXPECT_THROW(m.store(kTextBase + 0x2000, 8, 1), Error);
}

TEST(Memory, WriteToReadOnlyFaults) {
  Memory m;
  setup_mem(m);
  EXPECT_THROW(m.store(kTextBase, 4, 1), Error);
}

TEST(Memory, FetchRequiresExecutable) {
  Memory m;
  setup_mem(m);
  const u32 word = 0x12345678;
  m.write_bytes(kTextBase, &word, 4);
  EXPECT_EQ(m.fetch_word(kTextBase), word);
  EXPECT_THROW(m.fetch_word(kHeapBase), Error);
}

TEST(Memory, MisalignedAccessFaults) {
  Memory m;
  setup_mem(m);
  EXPECT_THROW(m.load(kHeapBase + 3, 8), Error);
  EXPECT_THROW(m.store(kHeapBase + 2, 4, 1), Error);
}

TEST(Memory, AccessStraddlingSegmentEndFaults) {
  Memory m;
  setup_mem(m);
  EXPECT_THROW(m.load(kDataBase + 0x1000 - 4, 8), Error);
}

TEST(Memory, OverlappingSegmentsRejected) {
  Memory m;
  setup_mem(m);
  EXPECT_THROW(m.add_segment({"dup", SegKind::Data, kDataBase + 8, 16, true, false}), Error);
}

TEST(Memory, Classify) {
  Memory m;
  setup_mem(m);
  EXPECT_EQ(m.classify(kTextBase), SegKind::Text);
  EXPECT_EQ(m.classify(kHeapBase + 5), SegKind::Heap);
  EXPECT_EQ(m.classify(kStackTop - 8), SegKind::Stack);
  EXPECT_EQ(m.classify(0x1234), SegKind::Unmapped);
}

TEST(Memory, BulkReadWriteAcrossChunks) {
  Memory m;
  setup_mem(m);
  std::vector<u8> data(100000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7);
  m.write_bytes(kHeapBase, data.data(), data.size());
  std::vector<u8> back(data.size());
  m.read_bytes(kHeapBase, back.data(), back.size());
  EXPECT_EQ(data, back);
}

TEST(Memory, ReadBytesOfUntouchedMemoryIsZero) {
  Memory m;
  setup_mem(m);
  u8 buf[16] = {0xFF};
  m.read_bytes(kHeapBase + 0x9000, buf, sizeof buf);
  for (u8 b : buf) EXPECT_EQ(b, 0);
}

// The same faults once a successful access has warmed the one-entry segment
// cache and backed the chunk: loads and stores take a fast path only when
// the cached segment holds and permits the whole aligned access, so every
// fault must still surface with its message.

/// The Error message `fn` throws ("" if it does not throw).
template <typename Fn>
std::string fault_message(Fn fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Memory, UnmappedFaultsAfterWarmAccess) {
  Memory m;
  setup_mem(m);
  m.store(kHeapBase + 0xFFFF8, 8, 7);
  EXPECT_EQ(m.load(kHeapBase + 0xFFFF8, 8), 7u);
  EXPECT_NE(fault_message([&] { m.load(kHeapBase + 0x100000, 8); })
                .find("access to unmapped address"),
            std::string::npos);
  EXPECT_NE(fault_message([&] { m.store(kHeapBase + 0x100000, 8, 1); })
                .find("access to unmapped address"),
            std::string::npos);
  EXPECT_NE(fault_message([&] { m.load(0x999, 8); }).find("access to unmapped address"),
            std::string::npos);
  EXPECT_EQ(m.load(kHeapBase + 0xFFFF8, 8), 7u);
}

TEST(Memory, WriteToReadOnlyFaultsAfterWarmAccess) {
  Memory m;
  setup_mem(m);
  const u32 word = 0x12345678;
  m.write_bytes(kTextBase, &word, 4);
  EXPECT_EQ(m.load(kTextBase, 4), word);  // text is readable
  EXPECT_NE(fault_message([&] { m.store(kTextBase, 4, 1); })
                .find("write to read-only segment text"),
            std::string::npos);
  EXPECT_EQ(m.load(kTextBase, 4), word);
}

TEST(Memory, MisalignedAccessFaultsAfterWarmAccess) {
  Memory m;
  setup_mem(m);
  m.store(kHeapBase, 8, 1);
  EXPECT_EQ(m.load(kHeapBase + 8, 8), 0u);
  EXPECT_NE(fault_message([&] { m.load(kHeapBase + 3, 8); }).find("misaligned load"),
            std::string::npos);
  EXPECT_NE(fault_message([&] { m.store(kHeapBase + 2, 4, 1); }).find("misaligned store"),
            std::string::npos);
  EXPECT_EQ(m.load(kHeapBase, 8), 1u);
}

TEST(Memory, AccessStraddlingSegmentEndFaultsAfterWarmAccess) {
  Memory m;
  setup_mem(m);
  m.store(kDataBase + 0x1000 - 8, 8, 3);
  EXPECT_EQ(m.load(kDataBase + 0x1000 - 8, 8), 3u);
  EXPECT_NE(fault_message([&] { m.load(kDataBase + 0x1000 - 4, 8); })
                .find("access to unmapped address"),
            std::string::npos);
  // An aligned access over the end of a segment whose size is not a
  // multiple of the access size.
  m.add_segment({"odd", SegKind::Data, kDataBase + 0x10000, 12, true, false});
  m.store(kDataBase + 0x10000, 8, 5);
  EXPECT_EQ(m.load(kDataBase + 0x10000, 8), 5u);
  EXPECT_NE(fault_message([&] { m.load(kDataBase + 0x10008, 8); })
                .find("access to unmapped address"),
            std::string::npos);
  EXPECT_NE(fault_message([&] { m.store(kDataBase + 0x10008, 8, 1); })
                .find("access to unmapped address"),
            std::string::npos);
  EXPECT_EQ(m.load(kDataBase + 0x10008, 4), 0u);
}

// Sub-word accesses on the warm fast path copy exactly their own bytes: a
// narrower store leaves the rest of the word alone, narrower loads
// zero-extend.
TEST(Memory, SubWordAccessesAfterWarmAccess) {
  Memory m;
  setup_mem(m);
  const u64 a = kHeapBase + 0x40;
  m.store(a, 8, ~u64{0});
  EXPECT_EQ(m.load(a, 8), ~u64{0});
  m.store(a, 4, 0xAAAAAAAA11223344ull);  // only the low 4 bytes land
  EXPECT_EQ(m.load(a, 8), 0xFFFFFFFF11223344ull);
  m.store(a + 5, 1, 0x1234);  // only the low byte lands, in byte 5
  EXPECT_EQ(m.load(a, 8), 0xFFFF34FF11223344ull);
  m.store(a + 8, 8, ~u64{0});
  EXPECT_EQ(m.load(a + 8, 4), 0xFFFFFFFFull);
  EXPECT_EQ(m.load(a + 12, 4), 0xFFFFFFFFull);
  EXPECT_EQ(m.load(a + 15, 1), 0xFFull);
  EXPECT_EQ(m.load(a + 4, 1), 0xFFull);
}

}  // namespace
}  // namespace dsprof::mem

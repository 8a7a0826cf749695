#include <gtest/gtest.h>

#include "cache/hierarchy.hpp"
#include "cache_oracle.hpp"
#include "support/rng.hpp"

namespace dsprof::cache {
namespace {

TEST(Cache, HitAfterFill) {
  Cache c({1024, 2, 32, true});
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x101F, false).hit);   // same 32B line
  EXPECT_FALSE(c.access(0x1020, false).hit);  // next line
}

TEST(Cache, LruEviction) {
  // Direct-mapped 2-set cache, 32B lines: addresses 0, 64 map to set 0.
  Cache c({64, 1, 32, true});
  c.access(0, false);
  c.access(64, false);                     // evicts 0
  EXPECT_FALSE(c.access(0, false).hit);    // 0 was evicted
}

TEST(Cache, LruKeepsRecentlyUsed) {
  // 1 set, 2 ways, 32B lines. Lines A=0, B=64, C=128.
  Cache c({64, 2, 32, true});
  c.access(0, false);    // A
  c.access(64, false);   // B
  c.access(0, false);    // touch A (B is now LRU)
  c.access(128, false);  // C evicts B
  EXPECT_TRUE(c.access(0, false).hit);
  EXPECT_FALSE(c.access(64, false).hit);
}

TEST(Cache, DirtyEvictionReported) {
  Cache c({64, 1, 32, true});
  c.access(0, true);  // write-allocate, dirty
  const CacheAccess r = c.access(64, false);
  EXPECT_TRUE(r.filled);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.evicted_addr, 0u);
}

TEST(Cache, WriteNoAllocateLeavesCacheUntouched) {
  Cache c({1024, 2, 32, false});
  const CacheAccess w = c.access(0x2000, true);
  EXPECT_FALSE(w.hit);
  EXPECT_FALSE(w.filled);
  EXPECT_FALSE(c.probe(0x2000));
  // But a write to a resident line hits and dirties it.
  c.access(0x2000, false);
  EXPECT_TRUE(c.access(0x2000, true).hit);
}

TEST(Cache, FillLineDoesNotCountAsAccess) {
  Cache c({1024, 2, 32, true});
  c.fill_line(0x3000);
  EXPECT_EQ(c.accesses(), 0u);
  EXPECT_EQ(c.prefetch_fills(), 1u);
  EXPECT_TRUE(c.access(0x3000, false).hit);
}

TEST(Cache, StatsConsistent) {
  Cache c({4096, 4, 64, true});
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) c.access(rng.below(1 << 16), false);
  EXPECT_EQ(c.accesses(), 10000u);
  EXPECT_EQ(c.hits() + c.misses(), c.accesses());
}

TEST(Cache, InvalidGeometryRejected) {
  EXPECT_THROW(Cache({1000, 2, 32, true}), Error);  // not divisible
  EXPECT_THROW(Cache({1024, 2, 33, true}), Error);  // line not pow2
  // Checked before the set count divides by ways * line_size.
  EXPECT_THROW(Cache({1024, 0, 32, true}), Error);  // no ways
  EXPECT_THROW(Cache({1024, 2, 0, true}), Error);   // no line
}

struct Geometry {
  u64 size;
  u32 ways;
  u32 line;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, SequentialSweepMissesOncePerLine) {
  const Geometry g = GetParam();
  Cache c({g.size, g.ways, g.line, true});
  // Sweep exactly the cache capacity: every line misses once, then all hit.
  for (u64 a = 0; a < g.size; a += 8) c.access(a, false);
  EXPECT_EQ(c.misses(), g.size / g.line);
  const u64 m0 = c.misses();
  for (u64 a = 0; a < g.size; a += 8) c.access(a, false);
  EXPECT_EQ(c.misses(), m0);  // fits exactly: no more misses
}

TEST_P(CacheGeometry, WorkingSetTwiceCapacityThrashes) {
  const Geometry g = GetParam();
  Cache c({g.size, g.ways, g.line, true});
  for (int rep = 0; rep < 3; ++rep) {
    for (u64 a = 0; a < 2 * g.size; a += g.line) c.access(a, false);
  }
  // LRU + round-robin sweep over 2x capacity: every access misses.
  EXPECT_EQ(c.misses(), c.accesses());
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(Geometry{64 * 1024, 4, 32},      // US-III D$
                                           Geometry{8 * 1024 * 1024, 2, 512},  // US-III E$
                                           Geometry{1024, 1, 64},
                                           Geometry{16 * 1024, 8, 128}));

// The MRU-ordered sets against the tick-LRU oracle: seeded random
// interleavings of demand reads and writes, prefetch fills and probes over
// addresses that both hit on every way and overflow the cache, compared
// field by field after every call.
class CacheDifferential : public ::testing::TestWithParam<std::tuple<Geometry, bool>> {};

std::string differential_name(const ::testing::TestParamInfo<std::tuple<Geometry, bool>>& info) {
  const Geometry g = std::get<0>(info.param);
  return std::to_string(g.size) + "B_" + std::to_string(g.ways) + "way_" + std::to_string(g.line) +
         "Bline_" + (std::get<1>(info.param) ? "alloc" : "noalloc");
}

TEST_P(CacheDifferential, MatchesTickLruOracle) {
  const auto [g, write_allocate] = GetParam();
  const CacheConfig cfg{g.size, g.ways, g.line, write_allocate};
  Cache c(cfg);
  oracle::TickLruCache ref(cfg);
  Xoshiro256 rng(g.size * 131 + g.ways * 7 + (write_allocate ? 1 : 0));
  u64 dirty_evictions = 0;
  for (int i = 0; i < 40000; ++i) {
    // Half the addresses fall in a quarter of the cache (mostly hits on
    // varying ways), half in four times its size (misses and evictions).
    const u64 addr = rng.below(2) == 0 ? rng.below(g.size / 4) : rng.below(4 * g.size);
    const u64 op = rng.below(8);  // 0-3 read, 4-5 write, 6 fill_line, 7 probe
    if (op == 7) {
      ASSERT_EQ(c.probe(addr), ref.probe(addr)) << "probe at step " << i;
    } else {
      const CacheAccess got = op == 6 ? c.fill_line(addr) : c.access(addr, op >= 4);
      const CacheAccess want = op == 6 ? ref.fill_line(addr) : ref.access(addr, op >= 4);
      ASSERT_EQ(got.hit, want.hit) << "step " << i << " op " << op;
      ASSERT_EQ(got.filled, want.filled) << "step " << i << " op " << op;
      ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "step " << i << " op " << op;
      ASSERT_EQ(got.evicted_addr, want.evicted_addr) << "step " << i << " op " << op;
      dirty_evictions += got.evicted_dirty ? 1 : 0;
    }
    ASSERT_EQ(c.accesses(), ref.accesses()) << "step " << i;
    ASSERT_EQ(c.hits(), ref.hits()) << "step " << i;
    ASSERT_EQ(c.prefetch_fills(), ref.prefetch_fills()) << "step " << i;
  }
  EXPECT_GT(c.hits(), 0u);
  EXPECT_GT(c.misses(), 0u);
  EXPECT_GT(dirty_evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Combine(::testing::Values(Geometry{1024, 1, 32},      // direct-mapped
                                         Geometry{2048, 2, 64},      // 2-way
                                         Geometry{4096, 4, 32},      // 4-way
                                         Geometry{8192, 8, 64},      // 8-way
                                         Geometry{512, 16, 32},      // fully associative
                                         Geometry{64 * 8192, 64, 8192}),  // fully associative
                       ::testing::Bool()),
    differential_name);

TEST(Tlb, MissThenHit) {
  Tlb t({64, 2, 8192});
  EXPECT_FALSE(t.lookup(0x10000));
  EXPECT_TRUE(t.lookup(0x10000));
  EXPECT_TRUE(t.lookup(0x10000 + 8191));  // same page
  EXPECT_FALSE(t.lookup(0x10000 + 8192));
}

TEST(Tlb, CoverageLimit) {
  Tlb t({64, 2, 8192});
  // Touch 128 pages round-robin: exceeds the 64-entry TLB; all miss.
  for (int rep = 0; rep < 2; ++rep) {
    for (u64 p = 0; p < 128; ++p) t.lookup(p * 8192);
  }
  EXPECT_EQ(t.misses(), t.accesses());
}

TEST(Tlb, InvalidGeometryRejected) {
  EXPECT_THROW(Tlb({64, 0, 8192}), Error);  // no ways
  EXPECT_THROW(Tlb({64, 3, 8192}), Error);  // entries not divisible by ways
  EXPECT_THROW(Tlb({64, 2, 8000}), Error);  // page not pow2
}

TEST(Tlb, LargePagesReduceMisses) {
  // The §3.3 -xpagesize_heap experiment in miniature: the same footprint
  // with 512 KB pages fits the 64-entry TLB, with 8 KB pages it does not.
  const u64 footprint = 16 * 1024 * 1024;
  Tlb small({64, 2, 8 * 1024});
  Tlb large({64, 2, 512 * 1024});
  Xoshiro256 rng(9);
  u64 small_misses = 0, large_misses = 0;
  for (int i = 0; i < 20000; ++i) {
    const u64 a = rng.below(footprint);
    if (!small.lookup(a)) ++small_misses;
    if (!large.lookup(a)) ++large_misses;
  }
  EXPECT_GT(small_misses, large_misses * 10);
}

// ---------------------------------------------------------------------------
// Hierarchy

TEST(Hierarchy, LoadMissCountsEcRefAndRdMiss) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  const AccessOutcome out = h.load(0x10000);
  EXPECT_TRUE(out.dc_rd_miss);
  EXPECT_TRUE(out.ec_ref);
  EXPECT_TRUE(out.ec_rd_miss);
  EXPECT_TRUE(out.dtlb_miss);
  EXPECT_GT(out.stall_cycles, 200u);
  EXPECT_EQ(out.ec_stall_cycles, h.config().ec_miss_cycles);

  const AccessOutcome again = h.load(0x10000);
  EXPECT_FALSE(again.dc_rd_miss);
  EXPECT_FALSE(again.ec_ref);
  EXPECT_FALSE(again.dtlb_miss);
  EXPECT_EQ(again.stall_cycles, h.config().dc_hit_cycles);
}

TEST(Hierarchy, StoreIsWriteThrough) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  const AccessOutcome st = h.store(0x20000);
  EXPECT_TRUE(st.ec_ref);        // every store reaches the E$
  EXPECT_TRUE(st.dc_wr_miss);    // no write-allocate in D$
  EXPECT_FALSE(st.ec_rd_miss);   // write misses are not read misses
  EXPECT_EQ(st.ec_stall_cycles, 0u);  // hidden by the store buffer
  // The store allocated in E$ but not D$: a load still misses D$, hits E$.
  const AccessOutcome ld = h.load(0x20000);
  EXPECT_TRUE(ld.dc_rd_miss);
  EXPECT_FALSE(ld.ec_rd_miss);
}

TEST(Hierarchy, DcHitAfterLoadFill) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  h.load(0x30000);
  const AccessOutcome st = h.store(0x30000);
  EXPECT_FALSE(st.dc_wr_miss);  // line resident: write-through hit
  EXPECT_TRUE(st.ec_ref);
}

TEST(Hierarchy, PrefetchInstructionFillsEc) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  // Prefetch requires a resident TLB entry; warm it with a nearby load.
  h.load(0x40000);
  const AccessOutcome pf = h.prefetch(0x40000 + 512);
  EXPECT_TRUE(pf.ec_ref);
  EXPECT_EQ(pf.stall_cycles, 0u);
  const AccessOutcome ld = h.load(0x40000 + 512);
  EXPECT_FALSE(ld.ec_rd_miss);  // prefetched into E$ (and D$)
  EXPECT_FALSE(ld.dc_rd_miss);
}

TEST(Hierarchy, PrefetchDroppedOnTlbMiss) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  const AccessOutcome pf = h.prefetch(0x7F0000);
  EXPECT_FALSE(pf.ec_ref);
  EXPECT_FALSE(pf.dtlb_miss);  // aborted, not counted
  EXPECT_TRUE(h.load(0x7F0000).ec_rd_miss);
}

TEST(Hierarchy, FetchMissesOncePerLine) {
  MemoryHierarchy h(HierarchyConfig::ultrasparc3());
  EXPECT_TRUE(h.fetch(0x100000000ull).ic_miss);
  EXPECT_FALSE(h.fetch(0x100000004ull).ic_miss);  // same line, sequential
  EXPECT_TRUE(h.fetch(0x100000020ull).ic_miss);
}

}  // namespace
}  // namespace dsprof::cache

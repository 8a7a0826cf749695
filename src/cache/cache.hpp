// Generic set-associative cache and TLB models with true-LRU replacement.
// Geometry defaults mirror the paper's UltraSPARC-III Cu testbed (§3.1):
// 64 KB 4-way 32 B-line D$ (write-through, no-write-allocate) and an 8 MB
// 2-way 512 B-line E$ (write-back, write-allocate).
#pragma once

#include <vector>

#include "support/common.hpp"

namespace dsprof::cache {

struct CacheConfig {
  u64 size_bytes = 0;
  u32 ways = 1;
  u32 line_size = 32;
  bool write_allocate = true;  // false => write misses bypass (no fill)

  u64 num_sets() const {
    DSP_CHECK(size_bytes % (static_cast<u64>(ways) * line_size) == 0,
              "cache size not divisible by ways*line");
    return size_bytes / (static_cast<u64>(ways) * line_size);
  }
};

/// Result of one cache access.
struct CacheAccess {
  bool hit = false;
  bool filled = false;        // a line was allocated for this access
  bool evicted_dirty = false; // the allocation displaced a dirty line
  u64 evicted_addr = 0;       // line address of the displaced line (if any)
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Perform a read (write=false) or write (write=true) of the line
  /// containing `addr`. Writes mark the line dirty when it is (or becomes)
  /// resident. The hit scan is inline; a hit on the most recently used way
  /// writes no recency state. A miss allocates out of line.
  CacheAccess access(u64 addr, bool write) {
    ++accesses_;
    const u64 set = set_index(addr);
    const u64 tag = tag_of(addr);
    u64* tags = &tags_[set * cfg_.ways];
    u8* dirty = &dirty_[set * cfg_.ways];
    for (u32 w = 0; w < valid_[set]; ++w) {
      if (tags[w] != tag) continue;
      ++hits_;
      if (w != 0) move_to_front(tags, dirty, w, tag, dirty[w]);
      if (write) dirty[0] = 1;
      CacheAccess r;
      r.hit = true;
      return r;
    }
    if (write && !cfg_.write_allocate) {
      return CacheAccess{};  // write-through no-allocate: nothing changes
    }
    return allocate(set, tag, write);
  }

  /// Fill the line containing `addr` without counting it as a demand access
  /// (used for prefetches). No-op if already resident.
  CacheAccess fill_line(u64 addr);

  /// True if the line containing `addr` is resident (does not disturb LRU).
  bool probe(u64 addr) const;

  const CacheConfig& config() const { return cfg_; }
  u64 line_addr(u64 addr) const { return addr & ~static_cast<u64>(cfg_.line_size - 1); }

  // Demand-access statistics (fills via fill_line are counted separately).
  u64 accesses() const { return accesses_; }
  u64 hits() const { return hits_; }
  u64 misses() const { return accesses_ - hits_; }
  u64 prefetch_fills() const { return prefetch_fills_; }

 private:
  u64 set_index(u64 addr) const { return (addr >> line_bits_) & (num_sets_ - 1); }
  u64 tag_of(u64 addr) const { return addr >> (line_bits_ + set_bits_); }
  /// Shift ways [0, from) of a set back by one, overwriting way `from`, and
  /// put (tag, dirty) in way 0.
  static void move_to_front(u64* tags, u8* dirty, u32 from, u64 tag, u8 d) {
    for (u32 w = from; w > 0; --w) {
      tags[w] = tags[w - 1];
      dirty[w] = dirty[w - 1];
    }
    tags[0] = tag;
    dirty[0] = d;
  }
  CacheAccess allocate(u64 set, u64 tag, bool write);

  CacheConfig cfg_;
  unsigned line_bits_;
  unsigned set_bits_;
  u64 num_sets_;
  // Each set's ways in most-recently-used-first order, set-major. Nothing
  // invalidates a line, so a set's valid ways are the prefix [0, valid_[set])
  // and its LRU way is the last of them: this order is exact true LRU.
  std::vector<u64> tags_;
  std::vector<u8> dirty_;
  std::vector<u32> valid_;  // per set
  u64 accesses_ = 0;
  u64 hits_ = 0;
  u64 prefetch_fills_ = 0;
};

struct TlbConfig {
  u32 entries = 512;
  u32 ways = 2;
  u64 page_size = 8 * 1024;  // Solaris default 8 KB; 512 KB in the
                             // -xpagesize_heap experiment (§3.3)
};

/// A TLB is a cache of page translations; hits/misses only, no dirty state.
class Tlb {
 public:
  explicit Tlb(const TlbConfig& cfg);

  /// True on hit; on miss the translation is filled (hardware table walk).
  bool lookup(u64 addr) { return cache_.access(addr, /*write=*/false).hit; }
  bool probe(u64 addr) const;

  const TlbConfig& config() const { return cfg_; }
  u64 accesses() const { return cache_.accesses(); }
  u64 misses() const { return cache_.misses(); }

 private:
  TlbConfig cfg_;
  Cache cache_;  // reuse the cache structure with line_size == page_size
};

}  // namespace dsprof::cache

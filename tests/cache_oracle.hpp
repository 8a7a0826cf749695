// The cache model's former tick-LRU line array, kept outside the product as
// the reference the MRU-ordered cache::Cache is held to.
#pragma once

#include <vector>

#include "cache/cache.hpp"

namespace dsprof::oracle {

/// Reference set-associative cache with true-LRU replacement: every line
/// carries its tag, valid and dirty bits and the global access tick of its
/// last use; a hit restamps the line, a fill takes the first invalid way or
/// else the way with the oldest stamp. cache::Cache keeps each set in
/// most-recently-used-first order instead; this is the executable reference
/// its victims, dirty evictions and statistics must match call for call
/// (tests/cache_test.cpp, CacheDifferential).
class TickLruCache {
 public:
  explicit TickLruCache(const cache::CacheConfig& cfg);

  cache::CacheAccess access(u64 addr, bool write);
  cache::CacheAccess fill_line(u64 addr);
  bool probe(u64 addr) const;

  u64 accesses() const { return accesses_; }
  u64 hits() const { return hits_; }
  u64 prefetch_fills() const { return prefetch_fills_; }

 private:
  struct Line {
    u64 tag = 0;
    bool valid = false;
    bool dirty = false;
    u64 lru = 0;
  };

  u64 set_index(u64 addr) const { return (addr >> line_bits_) & (num_sets_ - 1); }
  u64 tag_of(u64 addr) const { return addr >> (line_bits_ + set_bits_); }
  cache::CacheAccess allocate(u64 addr, bool write);

  cache::CacheConfig cfg_;
  unsigned line_bits_;
  unsigned set_bits_;
  u64 num_sets_;
  std::vector<Line> lines_;  // num_sets * ways, set-major
  u64 tick_ = 0;
  u64 accesses_ = 0;
  u64 hits_ = 0;
  u64 prefetch_fills_ = 0;
};

}  // namespace dsprof::oracle

#include "cache_oracle.hpp"

namespace dsprof::oracle {

using cache::CacheAccess;

TickLruCache::TickLruCache(const cache::CacheConfig& cfg) : cfg_(cfg) {
  DSP_CHECK(cfg_.ways >= 1, "cache needs at least one way");
  DSP_CHECK(is_pow2(cfg_.line_size), "line size must be a power of two");
  num_sets_ = cfg_.num_sets();
  DSP_CHECK(is_pow2(num_sets_), "set count must be a power of two");
  line_bits_ = log2_exact(cfg_.line_size);
  set_bits_ = log2_exact(num_sets_);
  lines_.resize(num_sets_ * cfg_.ways);
}

CacheAccess TickLruCache::access(u64 addr, bool write) {
  ++accesses_;
  const u64 tag = tag_of(addr);
  Line* base = &lines_[set_index(addr) * cfg_.ways];
  for (u32 w = 0; w < cfg_.ways; ++w) {
    Line& l = base[w];
    if (l.valid && l.tag == tag) {
      ++hits_;
      l.lru = ++tick_;
      if (write) l.dirty = true;
      CacheAccess r;
      r.hit = true;
      return r;
    }
  }
  if (write && !cfg_.write_allocate) {
    return CacheAccess{};  // write-through no-allocate: nothing changes
  }
  return allocate(addr, write);
}

CacheAccess TickLruCache::allocate(u64 addr, bool write) {
  const u64 set = set_index(addr);
  const u64 tag = tag_of(addr);
  Line* base = &lines_[set * cfg_.ways];
  Line* victim = base;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    Line& l = base[w];
    if (!l.valid) {
      victim = &l;
      break;
    }
    if (l.lru < victim->lru) victim = &l;
  }
  CacheAccess r;
  r.filled = true;
  if (victim->valid && victim->dirty) {
    r.evicted_dirty = true;
    r.evicted_addr = (victim->tag << (line_bits_ + set_bits_)) | (set << line_bits_);
  }
  victim->valid = true;
  victim->tag = tag;
  victim->dirty = write;
  victim->lru = ++tick_;
  return r;
}

CacheAccess TickLruCache::fill_line(u64 addr) {
  const u64 set = set_index(addr);
  const u64 tag = tag_of(addr);
  Line* base = &lines_[set * cfg_.ways];
  for (u32 w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return CacheAccess{true, false, false, 0};
  }
  ++prefetch_fills_;
  return allocate(addr, /*write=*/false);
}

bool TickLruCache::probe(u64 addr) const {
  const u64 set = set_index(addr);
  const u64 tag = tag_of(addr);
  const Line* base = &lines_[set * cfg_.ways];
  for (u32 w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

}  // namespace dsprof::oracle

#include "cache/cache.hpp"

namespace dsprof::cache {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  // Geometry checks run before num_sets() divides by ways * line_size.
  DSP_CHECK(cfg_.ways >= 1, "cache needs at least one way");
  DSP_CHECK(is_pow2(cfg_.line_size), "line size must be a power of two");
  num_sets_ = cfg_.num_sets();
  DSP_CHECK(is_pow2(num_sets_), "set count must be a power of two");
  line_bits_ = log2_exact(cfg_.line_size);
  set_bits_ = log2_exact(num_sets_);
  tags_.resize(num_sets_ * cfg_.ways);
  dirty_.resize(num_sets_ * cfg_.ways);
  valid_.resize(num_sets_);
}

CacheAccess Cache::allocate(u64 set, u64 tag, bool write) {
  u64* tags = &tags_[set * cfg_.ways];
  u8* dirty = &dirty_[set * cfg_.ways];
  u32& n = valid_[set];
  CacheAccess r;
  r.filled = true;
  if (n < cfg_.ways) {
    ++n;
  } else if (dirty[n - 1]) {  // full: the LRU way is displaced
    r.evicted_dirty = true;
    r.evicted_addr = (tags[n - 1] << (line_bits_ + set_bits_)) | (set << line_bits_);
  }
  move_to_front(tags, dirty, n - 1, tag, write);
  return r;
}

CacheAccess Cache::fill_line(u64 addr) {
  if (probe(addr)) return CacheAccess{true, false, false, 0};
  ++prefetch_fills_;
  return allocate(set_index(addr), tag_of(addr), /*write=*/false);
}

bool Cache::probe(u64 addr) const {
  const u64 set = set_index(addr);
  const u64 tag = tag_of(addr);
  const u64* tags = &tags_[set * cfg_.ways];
  for (u32 w = 0; w < valid_[set]; ++w) {
    if (tags[w] == tag) return true;
  }
  return false;
}

namespace {
CacheConfig tlb_as_cache(const TlbConfig& t) {
  CacheConfig c;
  DSP_CHECK(t.ways >= 1, "TLB needs at least one way");
  DSP_CHECK(t.entries % t.ways == 0, "TLB entries not divisible by ways");
  DSP_CHECK(is_pow2(t.page_size), "page size must be a power of two");
  c.line_size = static_cast<u32>(std::min<u64>(t.page_size, 1u << 30));
  c.ways = t.ways;
  c.size_bytes = static_cast<u64>(t.entries) * c.line_size;
  return c;
}
}  // namespace

Tlb::Tlb(const TlbConfig& cfg) : cfg_(cfg), cache_(tlb_as_cache(cfg)) {}

bool Tlb::probe(u64 addr) const { return cache_.probe(addr); }

}  // namespace dsprof::cache

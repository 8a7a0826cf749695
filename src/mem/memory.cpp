#include "mem/memory.hpp"

#include <cstring>

namespace dsprof::mem {

void Memory::add_segment(Segment seg) {
  DSP_CHECK(seg.size > 0, "empty segment: " + seg.name);
  for (const auto& s : segments_) {
    const bool disjoint = seg.base + seg.size <= s.base || s.base + s.size <= seg.base;
    DSP_CHECK(disjoint, "segments overlap: " + seg.name + " vs " + s.name);
  }
  segments_.push_back(std::move(seg));
  cached_segment_ = nullptr;  // vector growth may have moved the segments
}

const Segment* Memory::find_segment(u64 addr) const {
  for (const auto& s : segments_) {
    if (s.contains(addr)) return &s;
  }
  return nullptr;
}

SegKind Memory::classify(u64 addr) const {
  const Segment* s = find_segment(addr);
  return s ? s->kind : SegKind::Unmapped;
}

u8* Memory::chunk_for(u64 addr) {
  const u64 region = addr >> kRegionBits;
  DSP_CHECK(region < kNumRegions, "address beyond the 2^35 simulated space");
  std::unique_ptr<Region>& r = regions_[region];
  if (!r) r = std::make_unique<Region>();
  std::unique_ptr<u8[]>& c = r->chunks[(addr >> kChunkBits) & (kChunksPerRegion - 1)];
  if (!c) {
    c = std::make_unique<u8[]>(kChunkSize);
    std::memset(c.get(), 0, kChunkSize);
  }
  return c.get();
}

const u8* Memory::chunk_if_present(u64 addr) const {
  const u64 region = addr >> kRegionBits;
  if (region >= kNumRegions || !regions_[region]) return nullptr;
  return regions_[region]->chunks[(addr >> kChunkBits) & (kChunksPerRegion - 1)].get();
}

const Segment* Memory::require_segment(u64 addr, unsigned size, bool write, bool exec) {
  const Segment* s = cached_segment_;
  if (!s || !s->contains(addr)) {
    s = find_segment(addr);
    cached_segment_ = s;
  }
  if (!s || !s->contains(addr + size - 1)) {
    fail("memory fault: access to unmapped address " + std::to_string(addr));
  }
  if (write && !s->writable) fail("memory fault: write to read-only segment " + s->name);
  if (exec && !s->executable) fail("memory fault: fetch from non-executable segment " + s->name);
  return s;
}

u64 Memory::load_checked(u64 addr, unsigned size) {
  require_segment(addr, size, /*write=*/false, /*exec=*/false);
  DSP_CHECK(addr % size == 0, "misaligned load");
  // Accesses never straddle a chunk: size <= 8 and addr is size-aligned.
  const u8* c = chunk_for(addr);
  const u64 off = addr & (kChunkSize - 1);
  u64 v = 0;
  std::memcpy(&v, c + off, size);
  return v;
}

void Memory::store_checked(u64 addr, unsigned size, u64 value) {
  require_segment(addr, size, /*write=*/true, /*exec=*/false);
  DSP_CHECK(addr % size == 0, "misaligned store");
  u8* c = chunk_for(addr);
  const u64 off = addr & (kChunkSize - 1);
  std::memcpy(c + off, &value, size);
}

u32 Memory::fetch_word(u64 addr) {
  require_segment(addr, 4, /*write=*/false, /*exec=*/true);
  DSP_CHECK(addr % 4 == 0, "misaligned fetch");
  const u8* c = chunk_for(addr);
  u32 v;
  std::memcpy(&v, c + (addr & (kChunkSize - 1)), 4);
  return v;
}

void Memory::write_bytes(u64 addr, const void* data, size_t n) {
  const auto* p = static_cast<const u8*>(data);
  while (n > 0) {
    u8* c = chunk_for(addr);
    const u64 off = addr & (kChunkSize - 1);
    const size_t take = static_cast<size_t>(std::min<u64>(n, kChunkSize - off));
    std::memcpy(c + off, p, take);
    addr += take;
    p += take;
    n -= take;
  }
}

void Memory::read_bytes(u64 addr, void* data, size_t n) const {
  auto* p = static_cast<u8*>(data);
  while (n > 0) {
    const u64 off = addr & (kChunkSize - 1);
    const size_t take = static_cast<size_t>(std::min<u64>(n, kChunkSize - off));
    const u8* c = chunk_if_present(addr);
    if (c) {
      std::memcpy(p, c + off, take);
    } else {
      std::memset(p, 0, take);
    }
    addr += take;
    p += take;
    n -= take;
  }
}

}  // namespace dsprof::mem

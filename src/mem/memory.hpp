// Simulated 64-bit flat memory with named segments. The machine's loads and
// stores go through here; the collector also reads the text segment when it
// backtracks through instruction words.
//
// Address map (everything below 2^35 so SETHI+OR can form any address):
//   text   0x1'0000'0000   (the paper's Figure 4 PCs are 0x1000031xx)
//   data   0x2'0000'0000   (globals)
//   heap   0x3'0000'0000   (grows up; bump allocator in the scc runtime)
//   stack  0x7'FF80'0000   (grows down from 0x7'FFFF'C000)
#pragma once

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace dsprof::mem {

inline constexpr u64 kTextBase = 0x1'0000'0000ull;
inline constexpr u64 kDataBase = 0x2'0000'0000ull;
inline constexpr u64 kHeapBase = 0x3'0000'0000ull;
inline constexpr u64 kStackTop = 0x7'FFFF'C000ull;
inline constexpr u64 kStackSize = 0x80'0000ull;  // 8 MB

/// Segment classification used by the analyzer's address views (paper §4:
/// "memory segment (of load objects or allocated to stack, heap, ...)").
enum class SegKind : u8 { Text, Data, Heap, Stack, Unmapped };

struct Segment {
  std::string name;
  SegKind kind;
  u64 base;
  u64 size;
  bool writable;
  bool executable;

  bool contains(u64 addr) const { return addr >= base && addr - base < size; }
};

class Memory {
 public:
  Memory() = default;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  /// Register a segment. Segments must not overlap.
  void add_segment(Segment seg);

  const Segment* find_segment(u64 addr) const;
  SegKind classify(u64 addr) const;
  const std::vector<Segment>& segments() const { return segments_; }

  /// Typed accesses. `size` is 1, 4 or 8; loads zero-extend.
  /// Throws Error on unmapped addresses or (for writes) read-only segments.
  /// The fast paths copy with constant sizes: a runtime-size memcpy
  /// compiles to `rep movs` on every simulated load and store.
  u64 load(u64 addr, unsigned size) {
    if (const u8* p = fast_bytes(addr, size, /*write=*/false)) {
      switch (size) {
        case 8: return copy_out<u64>(p);
        case 4: return copy_out<u32>(p);
        case 1: return *p;
      }
    }
    return load_checked(addr, size);
  }
  void store(u64 addr, unsigned size, u64 value) {
    if (u8* p = fast_bytes(addr, size, /*write=*/true)) {
      switch (size) {
        case 8: copy_in<u64>(p, value); return;
        case 4: copy_in<u32>(p, static_cast<u32>(value)); return;
        case 1: *p = static_cast<u8>(value); return;
      }
    }
    store_checked(addr, size, value);
  }

  /// Instruction fetch (requires an executable segment).
  u32 fetch_word(u64 addr);

  /// Bulk accessors for the loader and host-side instance builders; these
  /// bypass writability checks (the loader writes text).
  void write_bytes(u64 addr, const void* data, size_t n);
  void read_bytes(u64 addr, void* data, size_t n) const;

 private:
  static constexpr u64 kChunkBits = 16;  // 64 KB backing chunks
  static constexpr u64 kChunkSize = u64{1} << kChunkBits;
  // Two-level page table over the 2^35-byte address space: 32 regions of
  // 1 GB, each holding 16384 chunks — chunk lookup is two dependent loads,
  // no hashing (this sits on the simulator's hottest path).
  static constexpr u64 kRegionBits = 30;
  static constexpr u64 kNumRegions = 32;
  static constexpr u64 kChunksPerRegion = u64{1} << (kRegionBits - kChunkBits);

  struct Region {
    std::vector<std::unique_ptr<u8[]>> chunks{kChunksPerRegion};
  };

  template <typename T>
  static u64 copy_out(const u8* p) {
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  template <typename T>
  static void copy_in(u8* p, T v) {
    std::memcpy(p, &v, sizeof v);
  }

  /// The backing bytes of an access that needs no check: the cached segment
  /// holds the whole access and permits it, the address is aligned and its
  /// chunk is already backed. nullptr sends the access down the checked path.
  u8* fast_bytes(u64 addr, unsigned size, bool write) const {
    const Segment* s = cached_segment_;
    if (s == nullptr || (write && !s->writable)) return nullptr;
    const u64 off = addr - s->base;
    if (off >= s->size || s->size - off < size || (addr & (size - 1)) != 0) return nullptr;
    const u64 region = addr >> kRegionBits;
    if (region >= kNumRegions || !regions_[region]) return nullptr;
    u8* c = regions_[region]->chunks[(addr >> kChunkBits) & (kChunksPerRegion - 1)].get();
    return c == nullptr ? nullptr : c + (addr & (kChunkSize - 1));
  }
  u64 load_checked(u64 addr, unsigned size);
  void store_checked(u64 addr, unsigned size, u64 value);
  u8* chunk_for(u64 addr);
  const u8* chunk_if_present(u64 addr) const;
  const Segment* require_segment(u64 addr, unsigned size, bool write, bool exec);

  std::vector<Segment> segments_;
  const Segment* cached_segment_ = nullptr;  // 1-entry lookup cache
  std::array<std::unique_ptr<Region>, kNumRegions> regions_;
};

}  // namespace dsprof::mem

// The memory hierarchy timing model: D$ + E$ + DTLB + I$, producing per-
// access stall cycles and the event pulses the hardware counters count.
//
// Model notes (documented deviations from real US-III Cu, see DESIGN.md §2):
//  * D$ is write-through no-write-allocate; every store is also an E$
//    reference (store buffer), as on US-III. Store stalls are hidden by the
//    store buffer, matching the near-zero E$ stall the paper shows on `stx`.
//  * E$ stall cycles are charged on demand E$ read misses (the "cycles lost"
//    interpretation the paper highlights for cycle-counting cache counters).
//  * There is no hardware prefetcher, as on US-III: only software prefetch
//    instructions (prefetch()) fill lines ahead of demand.
#pragma once

#include "cache/cache.hpp"

namespace dsprof::cache {

struct HierarchyConfig {
  CacheConfig dcache{64 * 1024, 4, 32, /*write_allocate=*/false};
  CacheConfig icache{32 * 1024, 4, 32, /*write_allocate=*/true};
  CacheConfig ecache{8 * 1024 * 1024, 2, 512, /*write_allocate=*/true};
  TlbConfig dtlb{512, 2, 8 * 1024};

  u32 dc_hit_cycles = 1;      // extra cycles for a load that hits D$
  u32 ec_hit_cycles = 14;     // D$ miss, E$ hit
  u32 ec_miss_cycles = 210;   // D$ miss, E$ miss: full memory latency
  u32 dtlb_miss_cycles = 100; // hardware table walk (paper's 100-cycle cost)
  u32 ic_miss_cycles = 12;

  /// The paper's testbed: dual 900 MHz US-III Cu, Sun Fire 280R, Solaris 9.
  static HierarchyConfig ultrasparc3();
};

/// Event pulses and stall produced by one access; the machine feeds these
/// into the PIC counters.
struct AccessOutcome {
  u32 stall_cycles = 0;   // added to the instruction's base cost
  bool dc_rd_miss = false;
  bool dc_wr_miss = false;
  bool ec_ref = false;
  bool ec_rd_miss = false;
  bool ec_wr_miss = false;
  bool dtlb_miss = false;
  bool ic_miss = false;
  u32 ec_stall_cycles = 0;  // portion of stall attributed to E$ misses
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& cfg);

  AccessOutcome load(u64 addr) { return data_access(addr, /*write=*/false); }
  AccessOutcome store(u64 addr) { return data_access(addr, /*write=*/true); }
  AccessOutcome prefetch(u64 addr);
  AccessOutcome fetch(u64 pc) {
    // Sequential fetch within the last fetched line touches no cache state.
    if (ic_.line_addr(pc) == last_fetch_line_) return AccessOutcome{};
    return fetch_line(pc);
  }

  const HierarchyConfig& config() const { return cfg_; }
  const Cache& dcache() const { return dc_; }
  const Cache& ecache() const { return ec_; }
  const Cache& icache() const { return ic_; }
  const Tlb& dtlb() const { return dtlb_; }

 private:
  [[gnu::always_inline]] AccessOutcome data_access(u64 addr, bool write) {
    AccessOutcome out;
    if (!dtlb_.lookup(addr)) {
      out.dtlb_miss = true;
      out.stall_cycles += cfg_.dtlb_miss_cycles;
    }
    const CacheAccess dc = dc_.access(addr, write);
    if (write) {
      // Write-through: the store always reaches the E$ via the store buffer.
      out.dc_wr_miss = !dc.hit;
      out.ec_ref = true;
      const CacheAccess ec = ec_.access(addr, /*write=*/true);
      out.ec_wr_miss = !ec.hit;
      // Store-buffer latency is hidden; no stall charged.
      return out;
    }
    if (dc.hit) {
      out.stall_cycles += cfg_.dc_hit_cycles;
      return out;
    }
    return ec_read(addr, out);
  }
  /// The E$ half of a load that missed the D$.
  AccessOutcome ec_read(u64 addr, AccessOutcome out);
  AccessOutcome fetch_line(u64 pc);

  HierarchyConfig cfg_;
  Cache dc_;
  Cache ic_;
  Cache ec_;
  Tlb dtlb_;
  u64 last_fetch_line_ = ~u64{0};
};

}  // namespace dsprof::cache

#include "cache/hierarchy.hpp"

namespace dsprof::cache {

HierarchyConfig HierarchyConfig::ultrasparc3() { return HierarchyConfig{}; }

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& cfg)
    : cfg_(cfg), dc_(cfg.dcache), ic_(cfg.icache), ec_(cfg.ecache), dtlb_(cfg.dtlb) {}

AccessOutcome MemoryHierarchy::ec_read(u64 addr, AccessOutcome out) {
  out.dc_rd_miss = true;
  out.ec_ref = true;
  const CacheAccess ec = ec_.access(addr, /*write=*/false);
  if (ec.hit) {
    out.stall_cycles += cfg_.ec_hit_cycles;
  } else {
    out.ec_rd_miss = true;
    out.ec_stall_cycles = cfg_.ec_miss_cycles;
    out.stall_cycles += cfg_.ec_miss_cycles;
  }
  return out;
}

AccessOutcome MemoryHierarchy::prefetch(u64 addr) {
  // Non-faulting, non-blocking: fills E$ (and D$) in the background. A TLB
  // miss aborts a real prefetch, so we only proceed on a resident page.
  AccessOutcome out;
  if (!dtlb_.probe(addr)) return out;
  const CacheAccess ec = ec_.fill_line(addr);
  out.ec_ref = !ec.hit;
  dc_.fill_line(addr);
  return out;
}

AccessOutcome MemoryHierarchy::fetch_line(u64 pc) {
  AccessOutcome out;
  last_fetch_line_ = ic_.line_addr(pc);
  const CacheAccess ic = ic_.access(pc, /*write=*/false);
  if (!ic.hit) {
    out.ic_miss = true;
    out.stall_cycles += cfg_.ic_miss_cycles;
  }
  return out;
}

}  // namespace dsprof::cache

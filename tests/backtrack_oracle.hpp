// The collector's former per-event backtracking search, kept outside the
// product as the reference the precomputed sa::BacktrackTable is held to.
#pragma once

#include <array>

#include "machine/counters.hpp"
#include "sa/backtrack_table.hpp"
#include "sym/image.hpp"

namespace dsprof::oracle {

/// Reference apropos backtracking search (paper §2.2.3): walk backward from
/// the skidded delivered PC through at most `window` decoded instructions to
/// the nearest memory op matching the trigger kind, then decide whether its
/// effective address is still recomputable from the delivered register
/// snapshot (no write to the address registers in between). The Collector
/// answers from the precomputed sa::BacktrackTable; this O(window) loop is
/// the executable reference the table must match bit-for-bit
/// (tests/sa_test.cpp, tests/scc_fuzz_test.cpp), and bench/backtrack_table
/// and bench/pipeline_throughput measure the gap.
///
/// Conservative annulled-delay-slot rule: the clobber scan treats *every*
/// instruction in the skid gap as an executed register writer — including a
/// branch delay slot the machine may have annulled at run time. The
/// delivered register snapshot cannot tell us whether the slot executed, so
/// assuming it did errs toward ea_known=false: a conservatively dropped
/// sample, never a wrong address attributed to a data object. The
/// sa::BacktrackTable precomputation applies the identical rule (the
/// bit-identity tests cover images with annulling branches).
sa::BacktrackAnswer backtrack_dynamic(const sym::Image& image, u64 delivered_pc,
                                      machine::TriggerKind kind,
                                      const std::array<u64, 32>& regs, u32 window);

}  // namespace dsprof::oracle

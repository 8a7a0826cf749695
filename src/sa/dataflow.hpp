// Dataflow analyses over the reconstructed CFG (cfg.hpp).
//
// ProgramFacts decodes the text once and derives the block-level facts every
// analysis needs (predecessor lists, a reverse postorder, delay-slot/annul
// structure), and reg_facts() gives the per-instruction register transfer
// function. Two analyses live here:
//
//   * Liveness     — backward may-analysis over 32-bit register masks, run
//     to its fixpoint by a worklist over the blocks. Blocks
//     ending in CALL/JMPL/HCALL (or with no static successors) are boundary
//     blocks with everything live: the callee/host may read any register.
//     Feeds the dead-register-write lint rule.
//   * AttributionCoverage — the static attribution-coverage proof. See below.
//
// Delay-slot exactness: an instruction in the delay slot of an annulling
// branch may be skipped at run time (machine/cpu.cpp), so its definition
// must not kill facts flowing across it — it is a *may*-def. The liveness
// transfer function honors that, mirroring the conservative annulled-slot
// rule of the backtracking clobber scan (backtrack_table.hpp).
//
// --- The attribution-coverage classification -------------------------------
//
// The dynamic pipeline attributes a counter event by an *address-order*
// backward search from the skidded delivered PC: the first matching memory
// op below the delivered PC becomes the candidate, whether or not it is
// path-connected to the true trigger. A memory-op PC therefore appears in
// profiles with a valid effective address exactly when some *reachable
// delivery point* resolves to it with the EA registers un-clobbered. That
// makes the classification delivery-centric:
//
//   Attributable — some issue-reachable delivered PC within the backtrack
//                  window resolves to this op with a statically recoverable
//                  EA: samples here can carry a data address.
//   Clobbered    — deliveries resolve to this op, but every one of them
//                  loses the EA to the skid-gap clobber scan (including the
//                  self-clobbering-load case): the op can only ever appear
//                  as <invalid EA>.
//   Unknown      — no issue-reachable delivery resolves to this op at all:
//                  it is invisible to the profiler (its own events, if any,
//                  are attributed elsewhere).
//
// "Issue-reachable" is the dataflow product: the set of PCs the machine can
// present as a delivered PC. It is instruction-level reachability plus the
// points cpu.cpp can issue without retiring — the delay slot of an annulling
// conditional branch (fetched, then annulled) and the word after a reachable
// Exit hcall (pending deliveries are flushed there at halt). The
// conservativeness theorem — every dynamically delivered PC lies in this
// set, hence every dynamically attributed candidate is classified
// Attributable — is enforced by tests/dataflow_test.cpp and the
// scc_fuzz_test property harness over random programs.
#pragma once

#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "sa/backtrack_table.hpp"
#include "sa/cfg.hpp"

namespace dsprof::sa {

// ---------------------------------------------------------------------------
// Shared program facts

inline constexpr u8 kNoReg = 32;

/// Per-instruction register transfer facts. `def` follows the *written
/// register* rule of the backtracking clobber scan exactly (loads and
/// ALU-type ops write rd, CALL writes the link register, stores/branches/
/// prefetches/HCALL/ILLEGAL write nothing, %g0 writes are dropped) — the two
/// analyses must never disagree about what clobbers a register. `uses` is a
/// register bitmask (%g0 excluded); HCALL conservatively reads %o0-%o5.
struct RegFacts {
  u8 def = kNoReg;
  u32 uses = 0;
};

RegFacts reg_facts(const isa::Instr& ins);

/// True for register-preserving identity moves (`or rd, rd, %g0`,
/// `add rd, rd, 0` and permutations): they write a register without changing
/// its value, so the dead-write rule must not flag them even though the
/// clobber scan (correctly, conservatively) treats them as writers.
bool is_identity_move(const isa::Instr& ins);

/// Decoded text + CFG-derived block facts shared by every analysis.
struct ProgramFacts {
  static ProgramFacts build(const sym::Image& img, const Cfg& cfg);

  const Cfg* cfg = nullptr;
  u64 text_base = 0;
  std::vector<isa::Instr> code;
  std::vector<std::vector<u32>> preds;  // per block, from cfg succ edges
  /// Every block exactly once: reverse postorder from the image entry and
  /// each function entry (so uncalled functions are analyzed too), then any
  /// stragglers in address order.
  std::vector<u32> rpo;
  std::vector<u32> rpo_index;  // block -> position in rpo

  size_t num_blocks() const { return preds.size(); }
  u64 pc_of(size_t w) const { return text_base + 4 * w; }
  size_t word_of(u64 pc) const { return static_cast<size_t>((pc - text_base) >> 2); }
  size_t block_lo_word(u32 b) const;
  size_t block_hi_word(u32 b) const;
  /// May the instruction at word `w` be annulled (it sits in the delay slot
  /// of an annulling branch)? Its defs are may-defs, never kills.
  bool may_annul(size_t w) const;
};

// ---------------------------------------------------------------------------
// Liveness

struct DeadWrite {
  u64 pc = 0;
  u8 reg = kNoReg;
};

class Liveness {
 public:
  static Liveness build(const ProgramFacts& pf);

  /// Registers live on exit of block `b`, as a bitmask.
  u32 live_out(u32 b) const { return live_out_[b]; }

  /// Register-writing instructions whose value is provably never read:
  /// reachable, not in a delay slot, not an identity move, and the written
  /// register is dead immediately after. Conservative boundaries (calls,
  /// indirect jumps, host calls treat every register as live-out) keep this
  /// a may-not-be-read proof, never a false positive. Sorted by PC.
  const std::vector<DeadWrite>& dead_writes() const { return dead_; }

  size_t solver_iterations() const { return iterations_; }

 private:
  std::vector<u32> live_out_;
  std::vector<DeadWrite> dead_;
  size_t iterations_ = 0;
};

// ---------------------------------------------------------------------------
// Attribution coverage

enum class EaClass : u8 { Attributable = 0, Clobbered = 1, Unknown = 2 };

const char* ea_class_name(EaClass c);

struct MemOpFact {
  u64 pc = 0;
  bool is_load = false;
  bool is_store = false;
  bool is_prefetch = false;
  bool reachable = false;  // the op itself can execute
  EaClass cls = EaClass::Unknown;
  /// Issue-reachable delivered PCs resolving to this op / those with the EA
  /// registers intact.
  u32 resolving_deliveries = 0;
  u32 ea_static_deliveries = 0;
  /// Address-order distance (instructions) to the first downstream writer of
  /// this op's EA registers within the window; 0 = none. A small depth means
  /// only near-zero skids keep the sample attributable.
  u32 clobber_depth = 0;
};

struct FunctionCoverage {
  std::string name;
  u64 lo = 0;
  u64 hi = 0;
  size_t mem_ops = 0;            // all memory-op PCs in [lo, hi)
  size_t reachable_mem_ops = 0;  // of those, executable
  size_t attributable = 0;       // of the reachable ones
  double fraction = 1.0;         // attributable / reachable (1.0 if none)
};

/// Static proof of attribution coverage: classifies every memory-op PC
/// against the precomputed backtrack table and the issue-reachable delivery
/// set (see the file header for the exact semantics and the conservativeness
/// theorem).
class AttributionCoverage {
 public:
  static AttributionCoverage build(const sym::Image& img, const Cfg& cfg,
                                   const BacktrackTable& table);

  const std::vector<MemOpFact>& mem_ops() const { return ops_; }
  const MemOpFact* find(u64 pc) const;

  /// Can the machine present `pc` as a delivered PC? (The static
  /// over-approximation; every dynamic delivered_pc must satisfy it.)
  bool is_delivery_point(u64 pc) const;

  size_t reachable_mem_ops() const { return reachable_; }
  size_t attributable() const { return attributable_; }
  /// attributable / reachable_mem_ops (1.0 for an image without memory ops).
  double fraction() const;

  /// Per-function coverage rows, in function address order.
  std::vector<FunctionCoverage> by_function(const sym::Image& img) const;

 private:
  u64 text_base_ = 0;
  std::vector<u8> delivery_;  // word index (n+1 entries) -> issue-reachable
  std::vector<MemOpFact> ops_;
  size_t reachable_ = 0;
  size_t attributable_ = 0;
};

}  // namespace dsprof::sa

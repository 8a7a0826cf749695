// Dataflow-precomputed apropos backtracking (paper §2.2.3, hoisted).
//
// The collector's dynamic search walks backward from the skidded delivered PC
// on *every* overflow event, re-decoding up to `window` instructions to find
// the candidate trigger and re-running a register-clobber scan over the skid
// gap. Every input to that search except the register values is static: the
// text segment never changes after load. This table precomputes, for every
// possible delivered PC and trigger kind, the complete answer — candidate
// trigger PC, clobber verdict, and the effective-address expression — so the
// overflow hot path is one O(1) lookup plus (at most) one add.
//
// The table is built once per image (Collector does this lazily on first
// use) and must be *bit-identical* to the dynamic reference search
// (oracle::backtrack_dynamic, tests/backtrack_oracle.hpp): same candidate
// PC, same found/ea_known flags, same EA, for every delivered PC, trigger
// kind, and register set. tests/sa_test.cpp and tests/scc_fuzz_test.cpp
// enforce the equivalence; bench/backtrack_table measures the win.
//
// Conservative annulled-delay-slot rule (shared with the dynamic search):
// the clobber scan treats every instruction between the candidate and the
// delivered PC as an executed writer, including delay slots that an
// annulling branch may have skipped at run time. An annulled slot that
// *would* have written an address register therefore downgrades the answer
// to ea_known=false — a lost sample, never a wrong address. See
// backtrack_dynamic in tests/backtrack_oracle.hpp for the rationale.
#pragma once

#include <array>
#include <vector>

#include "machine/counters.hpp"
#include "sym/image.hpp"

namespace dsprof::isa {
struct Instr;
}

namespace dsprof::sa {

/// One backtracking answer, in the shape the collector records it.
struct BacktrackAnswer {
  bool found = false;      // a matching memory op exists within the window
  u64 candidate_pc = 0;    // its PC (valid iff found)
  bool ea_known = false;   // EA registers survived the skid un-clobbered
  u64 ea = 0;              // recomputed effective address (valid iff ea_known)
};

class BacktrackTable {
 public:
  /// Precompute answers for every word-aligned delivered PC in
  /// [text_base, text_base + text_size] (inclusive: the delivered PC is the
  /// *next* instruction to issue, so one-past-the-end is deliverable) and
  /// both searchable trigger kinds. `window` must match the collector's
  /// backtrack_window for the equivalence guarantee to hold.
  static BacktrackTable build(const sym::Image& img, u32 window);

  /// O(1) lookup. TriggerKind::Any, out-of-range, or misaligned delivered
  /// PCs return an empty answer (the dynamic search finds nothing there
  /// either). `regs` is only read when the precomputed EA expression is
  /// statically recoverable.
  BacktrackAnswer query(u64 delivered_pc, machine::TriggerKind kind,
                        const std::array<u64, 32>& regs) const;

  /// The register-independent part of one precomputed answer: does a
  /// candidate exist for this delivered PC, where, and did its EA expression
  /// survive the clobber scan. The attribution-coverage classifier
  /// (dataflow.hpp) consumes these directly so its verdicts reuse the exact
  /// table/reference search semantics instead of re-deriving them.
  struct StaticEntry {
    bool found = false;
    bool ea_static = false;
    u64 candidate_pc = 0;  // valid iff found
  };
  StaticEntry static_entry(u64 delivered_pc, machine::TriggerKind kind) const;

  u32 window() const { return window_; }
  u64 text_base() const { return text_base_; }
  size_t num_entries() const { return load_.size() + loadstore_.size(); }
  size_t size_bytes() const;

  /// Of the (n_words+1) delivered PCs for `kind`, how many have a candidate /
  /// a statically recoverable EA? (s3verify reports these as coverage facts.)
  size_t count_found(machine::TriggerKind kind) const;
  size_t count_ea_static(machine::TriggerKind kind) const;

 private:
  // Flat per-delivered-PC entry. `flags` encodes the precomputed verdict;
  // the EA expression (rs1 + imm | rs1 + rs2) is stored expanded so query()
  // does no decoding.
  struct Entry {
    u32 candidate_word = 0;  // word index of the candidate trigger
    u8 flags = 0;
    u8 rs1 = 0;
    u8 rs2 = 0;
    i64 imm = 0;
  };
  static constexpr u8 kFound = 1u;     // candidate exists within the window
  static constexpr u8 kEaStatic = 2u;  // no clobber: EA recomputable from regs
  static constexpr u8 kHasImm = 4u;    // EA offset is the immediate, not rs2

  static Entry precompute(const std::vector<isa::Instr>& code, size_t dw,
                          machine::TriggerKind kind, u32 window);

  const std::vector<Entry>& table_for(machine::TriggerKind kind) const {
    return kind == machine::TriggerKind::Load ? load_ : loadstore_;
  }

  u64 text_base_ = 0;
  u32 window_ = 0;
  // Indexed by delivered-PC word offset, size n_words+1 each.
  std::vector<Entry> load_;
  std::vector<Entry> loadstore_;
};

}  // namespace dsprof::sa

// The per-executable symbol information that -xhwcprof -xdebugformat=dwarf
// produces (paper §2.1): for every memory-reference instruction, which data
// object (structure type + member, or scalar) it references; the table of
// branch-target PCs used to validate apropos backtracking; source line
// numbers per PC; and the function map.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/bytestream.hpp"
#include "sym/types.hpp"

namespace dsprof::sym {

/// Data descriptor for one memory-referencing instruction.
struct MemRef {
  enum class Kind : u8 {
    StructMember,  // {structure:node -}{long orientation}
    Scalar,        // access to a scalar (global/local) -> <Scalars> bucket
    Unidentified,  // compiler temporary; the compiler did not identify it
  };
  Kind kind = Kind::Unidentified;
  TypeId aggregate = kInvalidType;  // struct type (StructMember) / value type (Scalar)
  u32 member = 0;                   // member index within the struct
};

struct FuncInfo {
  std::string name;
  u64 lo = 0;  // first instruction address
  u64 hi = 0;  // one past the last instruction
};

struct LineEntry {
  u64 pc = 0;
  u32 line = 0;
};

/// Synthetic source: the DSL records one text line per statement so the
/// analyzer can render annotated source (Figure 3).
struct SourceLine {
  u32 line = 0;
  std::string text;
};

class SymbolTable {
 public:
  TypeTable& types() { return types_; }
  const TypeTable& types() const { return types_; }

  // --- population (compiler side) ------------------------------------------
  void add_function(FuncInfo f);
  void add_line(u64 pc, u32 line);
  void add_memref(u64 pc, MemRef ref);
  void set_branch_targets(std::vector<u64> sorted_targets);
  void add_source_line(u32 line, std::string text);
  void set_hwcprof(bool on) { hwcprof_ = on; }
  void set_has_branch_targets(bool on) { has_branch_targets_ = on; }

  // --- queries (collector / analyzer side) ----------------------------------
  const FuncInfo* find_function(u64 pc) const;
  const std::vector<FuncInfo>& functions() const { return funcs_; }
  std::optional<u32> line_for(u64 pc) const;
  /// Raw line table, pc-sorted at build time (order is *not* re-validated on
  /// deserialization — the sa linter checks it: rule line-table-order).
  const std::vector<LineEntry>& lines() const { return lines_; }
  /// nullptr when the compiler emitted no descriptor for this PC.
  const MemRef* memref_for(u64 pc) const;
  /// First branch-target address t with lo < t <= hi, or nullopt.
  std::optional<u64> branch_target_in(u64 lo, u64 hi) const;
  const std::vector<u64>& branch_targets() const { return branch_targets_; }
  const std::string* source_text(u32 line) const;

  bool hwcprof() const { return hwcprof_; }
  bool has_branch_targets() const { return has_branch_targets_; }

  /// Paper-style data descriptor string for an annotated listing, e.g.
  /// "{structure:node -}{long orientation}"; empty if no descriptor.
  std::string memref_string(u64 pc) const;

  void serialize(ByteWriter& w) const;
  static SymbolTable deserialize(ByteReader& r);

 private:
  TypeTable types_;
  std::vector<FuncInfo> funcs_;          // sorted by lo
  std::vector<LineEntry> lines_;         // sorted by pc
  std::unordered_map<u64, MemRef> memrefs_;
  std::vector<u64> branch_targets_;      // sorted
  std::unordered_map<u32, std::string> source_;
  bool hwcprof_ = true;
  bool has_branch_targets_ = true;
};

}  // namespace dsprof::sym

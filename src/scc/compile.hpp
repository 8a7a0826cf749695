// Compilation entry point: Module -> loadable sym::Image, implementing the
// paper's -xhwcprof / -xdebugformat=dwarf behaviour (§2.1):
//  * with hwcprof: every memory-reference instruction gets a data descriptor
//    (struct type + member) in the symbol table; nop padding is inserted
//    between memory operations and join nodes (labels/branches) so counter
//    events are captured in the triggering basic block; loads/stores are
//    never scheduled into branch delay slots;
//  * with dwarf: branch-target and line tables are emitted (STABS cannot
//    carry them — without dwarf the analyzer reports (Unverifiable));
//  * without hwcprof: memory descriptors are absent (the analyzer reports
//    (Unascertainable)) and delay slots may hold loads/stores.
#pragma once

#include "scc/module.hpp"
#include "sym/image.hpp"

namespace dsprof::scc {

struct CompileOptions {
  bool hwcprof = true;  // -xhwcprof
  bool dwarf = true;    // -xdebugformat=dwarf
  /// Minimum instruction distance kept between a memory operation and the
  /// next join node under hwcprof (nops inserted as needed).
  u32 pad_nops = 2;

  // --- mutation hooks (testing only) ----------------------------------------
  // Each deliberately breaks exactly one hwcprof codegen pass while leaving
  // the symbol-table flags claiming the contract holds, so the sa linter's
  // corresponding rule — and only that rule — must fire
  // (tests/sa_test.cpp mutation tests). All default off; default-compiled
  // output is byte-identical to before these hooks existed.
  /// Disable the nop padding between memory ops and join nodes
  /// (lint rule: missing-nop-pad).
  bool mutate_skip_nop_pad = false;
  /// Let the delay-slot filler hoist memory ops into branch delay slots
  /// (lint rule: mem-op-in-delay-slot).
  bool mutate_mem_in_delay_slot = false;
  /// Drop data descriptors while still flagging the image as hwcprof
  /// (lint rule: missing-descriptor).
  bool mutate_skip_memref = false;
  /// Load into the address register itself instead of a fresh temp, making
  /// the effective address statically unrecoverable
  /// (lint rule: statically-unprofilable-load).
  bool mutate_self_clobber_load = false;
  /// Write a constant into the call-result temp right before the real result
  /// move overwrites it (lint rule: dead-register-write).
  bool mutate_dead_register_write = false;
  /// Emit an identity move of the stack pointer immediately after each
  /// stack-slot load — semantically a no-op, but a clobber-scan writer of
  /// the load's EA register at distance 1. Temp-based loads already sit at
  /// depth 1 from register recycling; %sp is otherwise never redefined, so
  /// this is observable (lint rule: ea-clobber-depth).
  bool mutate_clobber_ea_early = false;
};

/// Compile `m` to an executable image. The module must define a function
/// named "main" (no parameters); a _start shim calls it and exits with its
/// return value.
sym::Image compile(const Module& m, const CompileOptions& opt = {});

/// Define the DSL runtime in `m`: a bump-pointer `malloc(size)` returning an
/// i64 address (cast at call sites), with allocations aligned to
/// `malloc_align` and reported to the host for the instance view.
/// Returns the malloc function.
Function* add_runtime(Module& m, u64 malloc_align = 16);

}  // namespace dsprof::scc

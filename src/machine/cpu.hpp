// The s3 CPU interpreter with timing, hardware counters, overflow skid,
// clock-profile sampling, and a ground-truth event log.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "isa/isa.hpp"
#include "machine/counters.hpp"
#include "mem/memory.hpp"
#include "support/rng.hpp"

namespace dsprof::machine {

struct CpuConfig {
  cache::HierarchyConfig hierarchy = cache::HierarchyConfig::ultrasparc3();
  u64 clock_hz = 900'000'000;  // the paper's 900 MHz US-III Cu
  u64 seed = 1;                // drives the skid distribution
  // Multiplier applied to every event's skid bounds; 0 makes all counters
  // precise (used by the skid-ablation bench).
  double skid_scale = 1.0;
};

struct RunResult {
  bool halted = false;   // program executed HCALL Exit
  i64 exit_code = 0;
  u64 instructions = 0;  // retired this run() call
  u64 cycles = 0;        // elapsed this run() call
};

class Cpu {
 public:
  Cpu(mem::Memory& memory, const CpuConfig& cfg);

  // --- program setup -------------------------------------------------------
  void set_pc(u64 pc);
  void set_reg(unsigned r, u64 v);
  u64 reg(unsigned r) const { return regs_[r]; }
  u64 pc() const { return pc_; }

  // --- counter control -----------------------------------------------------
  /// Program PIC `pic` to count `ev`, overflowing every `interval` counts.
  /// `start_value` pre-loads the counter register (how a multiplexing driver
  /// resumes a partially-counted interval when its set comes back on duty).
  /// Throws Error if the event cannot be counted on that register.
  void configure_pic(unsigned pic, HwEvent ev, u64 interval, u64 start_value = 0);
  void disable_pic(unsigned pic);
  /// Current counter register value (the residual a multiplexing driver saves
  /// before switching the register to another event).
  u64 pic_value(unsigned pic) const;
  /// Enable clock profiling: a sample every `interval_cycles` cycles.
  void configure_clock_profiling(u64 interval_cycles);

  /// Arm the slice timer: `on_slice` fires between instructions every
  /// `interval_cycles` cycles (0 disarms). This is the OS-timer the
  /// counter-multiplexing scheduler rotates counter sets on; unlike the
  /// clock-profile path it delivers precisely (no skid) — it is a timer
  /// interrupt, not a counter overflow trap.
  void configure_slice_timer(u64 interval_cycles);

  /// Invoked at each (skidded) overflow delivery and clock sample.
  std::function<void(const OverflowDelivery&)> on_overflow;
  /// Invoked at each slice-timer expiry (see configure_slice_timer).
  std::function<void()> on_slice;

  // --- execution -----------------------------------------------------------
  /// Run until HCALL Exit or `max_instructions` retired (0 = no limit).
  RunResult run(u64 max_instructions = 0);

  bool halted() const { return halted_; }
  i64 exit_code() const { return exit_code_; }

  // --- statistics & ground truth -------------------------------------------
  u64 total_instructions() const { return instructions_; }
  u64 total_cycles() const { return cycles_; }
  /// True (unsampled) total for each event — the oracle the sampled profile
  /// estimates. Cycle_cnt and Instr_cnt are the machine's own clocks.
  u64 event_total(HwEvent ev) const {
    if (ev == HwEvent::Cycle_cnt) return cycles_;
    if (ev == HwEvent::Instr_cnt) return instructions_;
    return event_totals_[static_cast<size_t>(ev)];
  }

  void set_truth_log_enabled(bool on) { truth_enabled_ = on; }
  const std::vector<TruthRecord>& truth_log() const { return truth_; }

  const std::string& output() const { return output_; }
  const std::vector<i64>& trace() const { return trace_; }

  /// Heap allocations the program reported via HostCall::NoteAlloc, in
  /// allocation order; each carries the PC of the noting instruction so the
  /// analyzer can name the allocation site.
  const std::vector<AllocRecord>& allocations() const { return allocs_; }

  const cache::MemoryHierarchy& hierarchy() const { return hier_; }
  mem::Memory& memory() { return mem_; }

 private:
  struct Pic {
    bool enabled = false;
    HwEvent event = HwEvent::Cycle_cnt;
    u64 interval = 0;
    u64 value = 0;
    // A PIC counting Cycle_cnt or Instr_cnt (a time-driven PIC) keeps no
    // running value while it is live: its register is the event's total
    // (cycles_ or instructions_) minus `origin`, folded back into `value`
    // whenever the PIC routing changes.
    u64 origin = 0;
  };

  struct Pending {
    bool active = false;
    u32 skid_remaining = 0;
    OverflowDelivery partial;  // filled except regs/delivered_pc
  };

  /// One pre-decoded text word: the isa::Instr fields step() reads plus the
  /// op_info facts it needs, in 16 bytes.
  struct DecodedOp {
    isa::Op op = isa::Op::ILLEGAL;
    u8 rd = 0;
    u8 rs1 = 0;
    u8 rs2 = 0;
    isa::Cond cond = isa::Cond::N;
    bool annul = false;
    bool has_imm = false;
    u8 mem_size = 0;  // bytes moved by a load or store
    i64 imm = 0;      // simm15 / imm21, or the BR/CALL byte displacement
  };
  static_assert(sizeof(DecodedOp) == 16);

  static constexpr u64 kNever = ~u64{0};

  void step();
  void deliver_due();
  void count_event(HwEvent ev, u64 amount, u64 trigger_pc, bool ea_valid, u64 ea);
  void trigger_overflow(unsigned pic, u64 trigger_pc, bool ea_valid, u64 ea);
  void count_outcome(const cache::AccessOutcome& out, u64 pc, u64 ea);
  u32 draw_skid(HwEvent ev);
  const DecodedOp& decoded(u64 pc) {
    const u64 idx = (pc - text_base_) / 4;
    if (idx < text_.size() && pc % 4 == 0) return text_[idx];
    return decoded_slow(pc);
  }
  const DecodedOp& decoded_slow(u64 pc);
  void exec_hcall(i64 code, u64 pc);
  bool eval_cond(isa::Cond c) const;
  void set_cc_add(u64 a, u64 b, u64 r);
  void set_cc_sub(u64 a, u64 b, u64 r);

  // --- time-driven events ---------------------------------------------------
  // Cycle_cnt/Instr_cnt PIC overflows, clock samples and slice expiries are
  // not counted per instruction: each instruction compares the running
  // totals against the next absolute threshold, and fire_time_events()
  // handles whatever fell due and recomputes the thresholds.
  bool time_events_due() const {
    return cycles_ >= next_cycle_check_ || instructions_ >= next_instr_check_;
  }
  void fire_time_events(u64 pc);
  void check_time_pic(HwEvent ev, u64 pc);
  void recompute_thresholds();
  /// The live PIC counting `ev`, or nullptr.
  Pic* live_pic(HwEvent ev) {
    const u8 pic_plus1 = pic_for_event_[static_cast<size_t>(ev)];
    return pic_plus1 == 0 ? nullptr : &pics_[pic_plus1 - 1];
  }
  void fold_time_pics();
  void rebuild_event_routing();

  mem::Memory& mem_;
  CpuConfig cfg_;
  cache::MemoryHierarchy hier_;
  Xoshiro256 rng_;

  std::array<u64, 32> regs_{};
  u64 pc_ = 0;
  u64 npc_ = 4;
  bool annul_next_ = false;
  bool cc_n_ = false, cc_z_ = false, cc_v_ = false, cc_c_ = false;
  bool halted_ = false;
  i64 exit_code_ = 0;

  u64 instructions_ = 0;
  u64 cycles_ = 0;
  std::array<u64, kNumHwEvents> event_totals_{};
  // Shadow call stack (call-site PCs) maintained by CALL/ret execution; the
  // stand-in for the collector's frame unwinding.
  std::vector<u64> call_stack_;

  std::array<Pic, kNumPics> pics_{};
  // Fast event -> PIC routing: 0 = not counted, else PIC index + 1.
  std::array<u8, kNumHwEvents> pic_for_event_{};
  std::vector<Pending> pending_;  // in-flight skidding deliveries
  // Reused for every delivery so the hot path performs no per-event heap
  // allocation (the callstack vector keeps its capacity between events).
  OverflowDelivery scratch_delivery_;
  u64 clock_interval_ = 0;        // 0 = clock profiling off
  u64 clock_origin_ = 0;          // cycles_ when the current clock tick began
  u64 slice_interval_ = 0;        // 0 = slice timer off
  u64 slice_origin_ = 0;          // cycles_ when the current slice began
  // Absolute thresholds: the earliest cycles_ / instructions_ total at which
  // a time-driven event can fall due (kNever = none armed).
  u64 next_cycle_check_ = kNever;
  u64 next_instr_check_ = kNever;
  u64 next_seq_ = 0;

  bool truth_enabled_ = true;
  std::vector<TruthRecord> truth_;
  std::string output_;
  std::vector<i64> trace_;
  std::vector<AllocRecord> allocs_;

  // The text segment, decoded whole on first use.
  u64 text_base_ = 0;
  std::vector<DecodedOp> text_;
};

}  // namespace dsprof::machine

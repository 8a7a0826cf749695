// The collect command (paper §2.2): run a target under hardware-counter and
// clock profiling, handle (skidded) overflow signals, perform the apropos
// backtracking search and effective-address recomputation at collection
// time, and produce an Experiment.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "experiment/experiment.hpp"
#include "machine/cpu.hpp"
#include "sa/backtrack_table.hpp"

namespace dsprof::collect {

/// Preset overflow intervals ("hi" / "on" / "lo"), per event, chosen as
/// primes to avoid correlation with loop periods (paper §2.2).
u64 overflow_interval(machine::HwEvent ev, const std::string& rate);

/// Parse a collect -h specification: "+ecstall,on,+ecrm,hi" or "+dtlbm,9973".
/// A leading '+' requests apropos backtracking for that counter. Counters are
/// assigned to PIC registers per event constraints; requesting two events
/// that need the same register is an error (as on real hardware).
std::vector<experiment::CounterSpec> parse_counter_spec(const std::string& spec);

/// As above, but with `multiplex` the register constraints bound each *set*
/// rather than the whole spec: counters are partitioned into sets of at most
/// kNumPics registers (honoring each event's pic_mask), and the collector
/// time-slices the sets onto the real registers. More than one resulting set
/// means the run multiplexes; a spec that fits one set behaves exactly as the
/// non-multiplexed parse. Duplicate counter names are an error either way.
std::vector<experiment::CounterSpec> parse_counter_spec(const std::string& spec,
                                                        bool multiplex);

/// Render the list of available counters (collect with no arguments).
std::string list_counters();

struct CollectOptions {
  /// -h: hardware counter spec; empty = no HW profiling.
  std::string hw = "";
  /// -p: clock profiling rate ("off", "hi", "on", "lo").
  std::string clock = "on";
  machine::CpuConfig cpu;
  u64 max_instructions = 0;  // safety stop; 0 = run to exit
  /// Instructions to search when backtracking from the delivered PC.
  u32 backtrack_window = 16;

  /// Counter-set multiplexing slice length in cycles: when -h names more
  /// counters than PIC registers, the collector partitions them into sets and
  /// rotates the sets round-robin every `mpx_slice_cycles` cycles (a prime,
  /// like the overflow intervals, to avoid phase-locking with loop periods).
  /// 0 disables multiplexing entirely — specs needing more than one set are
  /// then rejected exactly as before multiplexing existed.
  u64 mpx_slice_cycles = 1'000'003;

  /// Streaming export hook (the dsprofd ingest path, src/serve/): when set,
  /// the collector hands off a batch of events every `batch_export_events`
  /// recorded overflows, plus the final partial batch (`last = true`) at
  /// run end. The batch store is only valid for the duration of the call —
  /// a client typically encodes it onto the wire immediately. The run's
  /// Experiment still contains every event; streaming is additive.
  std::function<void(const experiment::EventStore& batch, bool last)> batch_export;
  size_t batch_export_events = 4096;
};

class Collector {
 public:
  Collector(const sym::Image& image, CollectOptions opt);

  /// Run the target to completion and return the experiment.
  /// `setup` (optional) runs after loading, before execution — e.g. to poke
  /// input data into simulated memory.
  experiment::Experiment run(const std::function<void(machine::Cpu&)>& setup = {});

  /// The CPU of the last run (valid after run()); exposes program output
  /// and the ground-truth log for validation.
  machine::Cpu& cpu() {
    DSP_CHECK(cpu_ != nullptr, "run() has not been called");
    return *cpu_;
  }

 private:
  sa::BacktrackAnswer backtrack(const machine::OverflowDelivery& d);
  void on_overflow(const machine::OverflowDelivery& d);
  /// Slice-timer callback: retire the live slice, save the outgoing set's
  /// counter residuals, arm the next set's counters from theirs.
  void rotate_set();
  /// Hand events [exported_, size) to opt_.batch_export as one batch.
  void export_pending(bool last);

  const sym::Image& image_;
  CollectOptions opt_;
  std::vector<experiment::CounterSpec> counters_;
  /// Per-event backtracking requests and set membership, resolved once at
  /// construction so the overflow hot path does not re-scan the counter
  /// specs per event. Keyed by event (not PIC): under multiplexing several
  /// counters share a register across time slices, and a skidded delivery
  /// can arrive after its set was rotated out.
  std::array<bool, machine::kNumHwEvents> backtrack_by_event_{};
  std::array<u8, machine::kNumHwEvents> set_by_event_{};
  /// Number of counter sets the spec partitioned into (1 = no multiplexing).
  unsigned num_sets_ = 1;
  unsigned cur_set_ = 0;
  /// Per-set live-cycle / switch accounting (empty when not multiplexing).
  std::vector<experiment::SliceInfo> slices_;
  /// Saved counter register residuals, per counter, across rotations.
  std::vector<u64> residuals_;
  u64 slice_start_cycles_ = 0;
  u64 clock_interval_ = 0;
  /// Precomputed backtracking answers. Built once per Collector, lazily at
  /// run(), and only when some counter actually requests backtracking.
  std::unique_ptr<sa::BacktrackTable> btable_;

  std::unique_ptr<mem::Memory> mem_;
  std::unique_ptr<machine::Cpu> cpu_;
  /// Columnar event store filled during the run (zero per-event allocations).
  experiment::EventStore events_;
  /// Events already handed to opt_.batch_export.
  size_t exported_ = 0;
};

}  // namespace dsprof::collect

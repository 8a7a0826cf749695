// The experiment: result of a `collect` run (paper §2.2) — a directory with
// a log, the loadobjects description (the executable image + symbol tables),
// and the recorded profile events. We keep experiments primarily in memory;
// save()/load() provide the on-disk directory form.
//
// Events are held in a columnar EventStore (event_store.hpp): one column per
// field, callstacks interned into a shared arena. events.bin has one layout,
// magic "DSPJ": the run header (put_run_header below), the EventStore's
// 8-byte-aligned columns including the per-event counter-set column, and a
// trailer of allocations (with their site PCs) and ground-truth records.
// load() maps the file and hands out zero-copy column views into it. A run
// that did not multiplex stores an empty slice table and a zero set column.
//
// The run header is also the tail of the dsprofd wire Hello (serve/wire.hpp):
// one codec, one set of bounds checks for both trust boundaries.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "experiment/event_store.hpp"
#include "machine/counters.hpp"
#include "sym/image.hpp"

namespace dsprof::experiment {

/// One requested hardware counter, e.g. "+ecstall,on":
/// leading '+' requests apropos backtracking (paper §2.2.3).
struct CounterSpec {
  machine::HwEvent event = machine::HwEvent::Cycle_cnt;
  u64 interval = 0;   // overflow interval (prime)
  bool backtrack = false;
  unsigned pic = 0;   // assigned counter register (within the set)
  unsigned set = 0;   // multiplexed counter set (0 when not multiplexing)
};

/// Per-set live-time accounting for a multiplexed run: how many cycles the
/// set's counters were actually armed, and how often the scheduler switched
/// to it. The renormalizing reduction scales a set's aggregates by
/// total_cycles / live_cycles to estimate the full-run counts.
struct SliceInfo {
  u64 live_cycles = 0;
  u64 switches = 0;
};

struct Experiment {
  std::string log;  // human-readable collection log
  sym::Image image;
  std::vector<CounterSpec> counters;
  u64 clock_interval = 0;  // cycles between clock-profile samples (0 = off)
  u64 clock_hz = 900'000'000;
  u64 page_size = 8 * 1024;
  u64 ec_line_size = 512;

  EventStore events;
  /// Heap allocations in order — for the instance view. `site_pc` names the
  /// allocation call site.
  std::vector<machine::AllocRecord> allocations;

  /// Slice table of a multiplexed run, indexed by counter set. Empty means
  /// the run did not multiplex: one set, live for all of total_cycles, so
  /// the renormalizing reduction scales by 1.0 bit-identically.
  std::vector<SliceInfo> slices;

  bool multiplexed() const { return slices.size() > 1; }

  // Run totals (from the run, not estimated from samples).
  u64 total_cycles = 0;
  u64 total_instructions = 0;

  /// Ground truth per overflow event, recorded by the simulator for
  /// validation benches/tests only — the analyzer must not consult it.
  std::vector<machine::TruthRecord> truth;

  double seconds(u64 cycles) const {
    return static_cast<double>(cycles) / static_cast<double>(clock_hz);
  }

  /// Write the experiment directory (log.txt, loadobjects.bin, events.bin).
  void save(const std::string& dir) const;
  /// Read an experiment directory. events.bin is mapped read-only (a
  /// buffered read where the platform cannot map) and validated before its
  /// columns are adopted as zero-copy views; any structural problem is an
  /// Error naming the file and directory.
  static Experiment load(const std::string& dir);
};

/// The run header: counter specs (with set ids), clock, machine geometry,
/// run totals and the slice table. get_run_header() rejects what would
/// break the analyzer — more than kNumHwEvents counters (checked before
/// anything is allocated), a counter event outside HwEvent, a zero page or
/// E$ line size, more slice-table entries than counters — and replaces the
/// header fields of `ex`. It does not require a counter's set id to index
/// the slice table: a live collector announces its multiplexed counters
/// before any slice has run. Experiment::load adds the file-only bounds.
void put_run_header(ByteWriter& w, const Experiment& ex);
void get_run_header(ByteReader& r, Experiment& ex);

}  // namespace dsprof::experiment

#include "collect/collector.hpp"

#include <sstream>

#include "obs/obs.hpp"
#include "support/rng.hpp"

namespace dsprof::collect {

using machine::HwEvent;
using machine::HwEventInfo;
using machine::TriggerKind;

u64 overflow_interval(HwEvent ev, const std::string& rate) {
  // Base "on" intervals tuned for simulator-scale runs (10^8-10^9 cycles):
  // enough samples for stable profiles, sparse enough not to distort them.
  u64 base = 0;
  switch (ev) {
    case HwEvent::Cycle_cnt: base = 900'000; break;  // ~1 ms at 900 MHz
    case HwEvent::Instr_cnt: base = 1'000'000; break;
    case HwEvent::IC_miss: base = 1'000; break;
    case HwEvent::DC_rd_miss: base = 10'000; break;
    case HwEvent::DC_wr_miss: base = 10'000; break;
    case HwEvent::EC_ref: base = 20'000; break;
    case HwEvent::EC_rd_miss: base = 1'000; break;
    case HwEvent::EC_stall_cycles: base = 100'000; break;
    case HwEvent::DTLB_miss: base = 500; break;
    default: fail("bad event");
  }
  if (rate == "on") return next_prime(base);
  if (rate == "hi") return next_prime(std::max<u64>(base / 10, 13));
  if (rate == "lo") return next_prime(base * 10);
  // Numeric interval.
  DSP_CHECK(!rate.empty(), "empty counter rate: expected 'hi', 'on', 'lo', or a "
                           "positive integer overflow interval");
  u64 v = 0;
  for (char c : rate) {
    DSP_CHECK(c >= '0' && c <= '9', "bad counter rate '" + rate +
                                        "': expected 'hi', 'on', 'lo', or a positive "
                                        "integer overflow interval");
    v = v * 10 + static_cast<u64>(c - '0');
  }
  DSP_CHECK(v > 0, "counter interval must be positive, got '" + rate + "'");
  return v;
}

std::vector<experiment::CounterSpec> parse_counter_spec(const std::string& spec) {
  return parse_counter_spec(spec, /*multiplex=*/false);
}

std::vector<experiment::CounterSpec> parse_counter_spec(const std::string& spec,
                                                        bool multiplex) {
  std::vector<experiment::CounterSpec> out;
  if (spec.empty()) return out;
  // Tokenize on commas: name,rate pairs.
  std::vector<std::string> tok;
  std::string cur;
  for (char c : spec) {
    if (c == ',') {
      tok.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  tok.push_back(cur);
  DSP_CHECK(tok.size() % 2 == 0, "counter spec must be comma-separated name,rate pairs "
                                 "(e.g. '+ecstall,on,+ecrm,hi'), got an odd token in: " +
                                     spec);
  if (!multiplex) {
    DSP_CHECK(tok.size() / 2 <= machine::kNumPics,
              "at most " + std::to_string(machine::kNumPics) +
                  " hardware counters can be collected at once (" +
                  std::to_string(machine::kNumPics) + " PIC registers), got " +
                  std::to_string(tok.size() / 2) + " in: " + spec);
  }

  // Pass 1: resolve names, rates, backtracking requests; reject duplicates
  // (two specs for one event would race for the same overflow stream —
  // meaningless with or without multiplexing).
  std::array<bool, machine::kNumHwEvents> seen{};
  for (size_t i = 0; i < tok.size(); i += 2) {
    std::string name = tok[i];
    DSP_CHECK(!name.empty(), "empty counter name in spec: " + spec);
    experiment::CounterSpec c;
    if (name[0] == '+') {
      c.backtrack = true;
      name = name.substr(1);
    }
    DSP_CHECK(name.empty() || name[0] != '+',
              "duplicate '+' prefix on counter '" + tok[i] +
                  "': a single '+' requests apropos backtracking");
    DSP_CHECK(!name.empty(), "missing counter name after '+' in spec: " + spec);
    c.event = machine::hw_event_by_name(name);
    DSP_CHECK(!seen[static_cast<size_t>(c.event)],
              "duplicate counter '" + name + "' in spec: " + spec);
    seen[static_cast<size_t>(c.event)] = true;
    c.interval = overflow_interval(c.event, tok[i + 1]);
    out.push_back(c);
  }

  // Pass 2: assign registers. Each set holds at most one counter per PIC
  // register, honoring each event's pic_mask. First-fit into the lowest
  // feasible free register, with (under multiplexing) a one-level augmenting
  // swap — moving an already-placed counter to its other feasible register —
  // before giving up on a set. With two registers the swap makes the greedy
  // exact: a set rejects a counter only when no assignment exists. Without
  // multiplexing there is a single set and a rejection is a hard error.
  struct SetState {
    std::array<int, machine::kNumPics> owner;  // counter index, -1 = free
  };
  std::vector<SetState> sets;
  auto try_place = [&](size_t ci, SetState& s) {
    const u8 mask = machine::hw_event_info(out[ci].event).pic_mask;
    for (unsigned pic = 0; pic < machine::kNumPics; ++pic) {
      if ((mask & (1u << pic)) && s.owner[pic] < 0) {
        s.owner[pic] = static_cast<int>(ci);
        out[ci].pic = pic;
        return true;
      }
    }
    for (unsigned pic = 0; pic < machine::kNumPics; ++pic) {
      if (!(mask & (1u << pic))) continue;
      const size_t occ = static_cast<size_t>(s.owner[pic]);
      const u8 omask = machine::hw_event_info(out[occ].event).pic_mask;
      for (unsigned other = 0; other < machine::kNumPics; ++other) {
        if (other != pic && (omask & (1u << other)) && s.owner[other] < 0) {
          s.owner[other] = static_cast<int>(occ);
          out[occ].pic = other;
          s.owner[pic] = static_cast<int>(ci);
          out[ci].pic = pic;
          return true;
        }
      }
    }
    return false;
  };
  for (size_t ci = 0; ci < out.size(); ++ci) {
    bool placed = false;
    for (size_t si = 0; si < sets.size() && !placed; ++si) {
      if (try_place(ci, sets[si])) {
        out[ci].set = static_cast<unsigned>(si);
        placed = true;
      }
    }
    if (placed) continue;
    if (multiplex || sets.empty()) {
      // Open a new set; placement into an empty set always succeeds (every
      // event's pic_mask names at least one register).
      SetState fresh;
      fresh.owner.fill(-1);
      sets.push_back(fresh);
      DSP_CHECK(try_place(ci, sets.back()), "internal: empty set rejected a counter");
      out[ci].set = static_cast<unsigned>(sets.size() - 1);
      continue;
    }
    // Name the conflicting assignment precisely (as on real hardware,
    // where the event->register constraints are fixed).
    const HwEventInfo& info = machine::hw_event_info(out[ci].event);
    std::string taken;
    for (unsigned pic = 0; pic < machine::kNumPics; ++pic) {
      if (info.pic_mask & (1u << pic)) {
        if (!taken.empty()) taken += ", ";
        const size_t occ = static_cast<size_t>(sets[0].owner[pic]);
        taken += "PIC" + std::to_string(pic) + " already counts '" +
                 machine::hw_event_info(out[occ].event).name + "'";
      }
    }
    fail("counter '" + std::string(machine::hw_event_info(out[ci].event).name) +
         "' cannot be scheduled: " + taken +
         " (each counter needs its own PIC register; see list_counters() for "
         "each event's register constraints)");
  }
  return out;
}

std::string list_counters() {
  std::ostringstream os;
  os << "Available hardware counters (UltraSPARC-III-like):\n";
  for (size_t i = 0; i < machine::kNumHwEvents; ++i) {
    const HwEventInfo& e = machine::hw_event_info(static_cast<HwEvent>(i));
    os << "  " << e.name;
    for (size_t pad = std::string(e.name).size(); pad < 10; ++pad) os << ' ';
    os << e.description << (e.counts_cycles ? " (cycles)" : " (events)") << ", PIC";
    if (e.pic_mask & 1) os << "0";
    if (e.pic_mask & 2) os << (e.pic_mask & 1 ? "/1" : "1");
    os << ", skid " << e.skid_min << "-" << e.skid_max << " instructions\n";
  }
  os << "Prefix a name with '+' to enable apropos backtracking search.\n";
  return os.str();
}

Collector::Collector(const sym::Image& image, CollectOptions opt)
    : image_(image), opt_(std::move(opt)) {
  counters_ = parse_counter_spec(opt_.hw, /*multiplex=*/opt_.mpx_slice_cycles != 0);
  for (const auto& c : counters_) {
    backtrack_by_event_[static_cast<size_t>(c.event)] = c.backtrack;
    set_by_event_[static_cast<size_t>(c.event)] = static_cast<u8>(c.set);
    num_sets_ = std::max(num_sets_, c.set + 1);
  }
  if (opt_.clock != "off" && !opt_.clock.empty()) {
    clock_interval_ = overflow_interval(HwEvent::Cycle_cnt, opt_.clock);
  }
}

sa::BacktrackAnswer Collector::backtrack(const machine::OverflowDelivery& d) {
  // Self-observability (src/obs/): query latency plus the clobber/unresolved
  // outcome tallies the §2.2.3 search can produce.
  // Overflows are orders of magnitude sparser than instructions, so timing
  // each query does not distort collection (bench/obs_overhead).
  static const obs::Histogram kTableNs = obs::histogram("collect.backtrack.table_ns");
  static const obs::Counter kQueries = obs::counter("collect.backtrack.queries");
  static const obs::Counter kEaRecovered = obs::counter("collect.backtrack.ea_recovered");
  static const obs::Counter kEaClobbered = obs::counter("collect.backtrack.ea_clobbered");
  static const obs::Counter kUnresolved = obs::counter("collect.backtrack.unresolved");

  const TriggerKind kind = machine::hw_event_info(d.event).trigger;
  kQueries.add();
  sa::BacktrackAnswer r;
  {
    const obs::ScopedTimer timer(kTableNs);
    r = btable_->query(d.delivered_pc, kind, d.regs);
  }
  if (!r.found) {
    kUnresolved.add();
  } else if (r.ea_known) {
    kEaRecovered.add();
  } else {
    kEaClobbered.add();  // address registers written in the skid gap
  }
  return r;
}

void Collector::on_overflow(const machine::OverflowDelivery& d) {
  // Hot path: append straight into the columnar store. No row record is
  // materialized and no per-event heap allocation happens — the callstack
  // words are interned into the store's shared arena.
  static const obs::Counter kOverflows = obs::counter("collect.overflows");
  kOverflows.add();
  const bool clock_sample = d.pic == machine::kClockPic;
  sa::BacktrackAnswer r;
  if (!clock_sample && backtrack_by_event_[static_cast<size_t>(d.event)]) {
    r = backtrack(d);
  }
  // Stamp the event with its counter set. A hardware overflow belongs to the
  // set that configured its event — which may no longer be the live set if
  // the delivery skidded across a rotation — while a clock sample belongs to
  // whichever set is live at delivery (the clock never rotates).
  const u8 set =
      clock_sample ? static_cast<u8>(cur_set_) : set_by_event_[static_cast<size_t>(d.event)];
  events_.append(static_cast<u8>(d.pic), d.event, d.interval, d.delivered_pc, r.found,
                 r.candidate_pc, r.ea_known, r.ea, d.callstack.data(), d.callstack.size(),
                 d.seq, set);
  if (opt_.batch_export && events_.size() - exported_ >= opt_.batch_export_events) {
    export_pending(/*last=*/false);
  }
}

void Collector::rotate_set() {
  // Fired by the slice timer between instructions: the outgoing set's
  // registers hold consistent residuals and no partially-counted
  // instruction straddles the switch.
  static const obs::Counter kSwitches = obs::counter("collect.mpx.switches");
  kSwitches.add();
  const u64 now = cpu_->total_cycles();
  slices_[cur_set_].live_cycles += now - slice_start_cycles_;
  slice_start_cycles_ = now;
  for (size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i].set != cur_set_) continue;
    // Save the partially-counted interval so the counter resumes mid-count
    // when its set comes back on duty (no samples lost to resets).
    residuals_[i] = cpu_->pic_value(counters_[i].pic);
    cpu_->disable_pic(counters_[i].pic);
  }
  cur_set_ = (cur_set_ + 1) % num_sets_;
  slices_[cur_set_].switches += 1;
  for (size_t i = 0; i < counters_.size(); ++i) {
    const auto& c = counters_[i];
    if (c.set != cur_set_) continue;
    cpu_->configure_pic(c.pic, c.event, c.interval, residuals_[i]);
  }
}

void Collector::export_pending(bool last) {
  if (!opt_.batch_export) return;
  if (exported_ == events_.size() && !last) return;
  static const obs::SpanName kExportSpan = obs::span_name("collect.export_batch");
  static const obs::Counter kBatches = obs::counter("collect.batches.exported");
  static const obs::Histogram kBatchEvents = obs::histogram("collect.export.batch_events");
  const obs::ScopedSpan span(kExportSpan);
  // Re-pack the pending range into a self-contained batch store (own arena)
  // so the consumer may keep or encode it independently of events_.
  experiment::EventStore batch;
  batch.append_range(events_, exported_, events_.size());
  exported_ = events_.size();
  kBatches.add();
  kBatchEvents.record(batch.size());
  opt_.batch_export(batch, last);
}

experiment::Experiment Collector::run(const std::function<void(machine::Cpu&)>& setup) {
  // Hoist the per-event backtracking work into a one-time static analysis
  // pass: the table answers every overflow with an O(1) lookup instead of
  // the O(window) decode loop above (kept as the reference the table is
  // tested against).
  bool want_backtrack = false;
  for (const auto& c : counters_) want_backtrack = want_backtrack || c.backtrack;
  if (want_backtrack && btable_ == nullptr) {
    static const obs::Histogram kBuildNs = obs::histogram("collect.backtrack.table_build_ns");
    const obs::ScopedTimer timer(kBuildNs);
    btable_ = std::make_unique<sa::BacktrackTable>(
        sa::BacktrackTable::build(image_, opt_.backtrack_window));
  }

  mem_ = std::make_unique<mem::Memory>();
  image_.load_into(*mem_);
  cpu_ = std::make_unique<machine::Cpu>(*mem_, opt_.cpu);
  cpu_->set_pc(image_.entry);

  // Arm set 0 only; under multiplexing the slice timer rotates the remaining
  // sets onto the registers round-robin.
  for (const auto& c : counters_) {
    if (c.set == 0) cpu_->configure_pic(c.pic, c.event, c.interval);
  }
  if (num_sets_ > 1) {
    slices_.assign(num_sets_, {});
    slices_[0].switches = 1;  // set 0 starts on duty
    cur_set_ = 0;
    slice_start_cycles_ = 0;
    residuals_.assign(counters_.size(), 0);
    cpu_->configure_slice_timer(opt_.mpx_slice_cycles);
    cpu_->on_slice = [this] { rotate_set(); };
  } else {
    slices_.clear();
  }
  if (clock_interval_ != 0) cpu_->configure_clock_profiling(clock_interval_);
  cpu_->on_overflow = [this](const machine::OverflowDelivery& d) { on_overflow(d); };

  if (setup) setup(*cpu_);

  events_.clear();
  exported_ = 0;
  static const obs::SpanName kRunSpan = obs::span_name("collect.run");
  machine::RunResult rr;
  {
    const obs::ScopedSpan span(kRunSpan);
    rr = cpu_->run(opt_.max_instructions);
  }
  export_pending(/*last=*/true);

  if (num_sets_ > 1) {
    // Retire the final (partial) slice so the live-cycle totals partition
    // the whole run: sum(live_cycles) == total cycles.
    slices_[cur_set_].live_cycles += cpu_->total_cycles() - slice_start_cycles_;
  }

  experiment::Experiment ex;
  ex.image = image_;
  ex.counters = counters_;
  ex.clock_interval = clock_interval_;
  ex.clock_hz = opt_.cpu.clock_hz;
  ex.page_size = opt_.cpu.hierarchy.dtlb.page_size;
  ex.ec_line_size = opt_.cpu.hierarchy.ecache.line_size;
  ex.events = std::move(events_);
  ex.slices = slices_;
  ex.allocations = cpu_->allocations();
  ex.total_cycles = rr.cycles;
  ex.total_instructions = rr.instructions;
  ex.truth = cpu_->truth_log();

  std::ostringstream log;
  log << "collect: hw='" << opt_.hw << "' clock='" << opt_.clock << "'\n";
  if (num_sets_ > 1) {
    u64 switches = 0;
    for (const auto& s : slices_) switches += s.switches;
    log << "multiplex: " << num_sets_ << " counter sets, slice " << opt_.mpx_slice_cycles
        << " cycles, " << switches << " activations\n";
  }
  log << "target: " << image_.text_size() / 4 << " instructions of text, entry 0x" << std::hex
      << image_.entry << std::dec << "\n";
  log << "run: " << (rr.halted ? "exited" : "stopped") << ", exit code " << rr.exit_code
      << ", " << rr.instructions << " instructions, " << rr.cycles << " cycles ("
      << ex.seconds(rr.cycles) << " s at " << ex.clock_hz / 1'000'000 << " MHz)\n";
  log << "events recorded: " << ex.events.size() << "\n";
  ex.log = log.str();
  return ex;
}

}  // namespace dsprof::collect

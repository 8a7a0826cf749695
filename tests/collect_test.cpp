#include <gtest/gtest.h>

#include <map>

#include "dsl_fixtures.hpp"
#include "mcfsim/experiments.hpp"
#include "mcfsim/mcfsim.hpp"

namespace dsprof::collect {
namespace {

using machine::HwEvent;

TEST(CounterSpec, ParsesNamesRatesAndBacktrackFlag) {
  const auto specs = parse_counter_spec("+ecstall,on,+ecrm,on");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].event, HwEvent::EC_stall_cycles);
  EXPECT_TRUE(specs[0].backtrack);
  EXPECT_EQ(specs[0].pic, 0u);
  EXPECT_EQ(specs[1].event, HwEvent::EC_rd_miss);
  EXPECT_TRUE(specs[1].backtrack);
  EXPECT_EQ(specs[1].pic, 1u);
}

TEST(CounterSpec, PaperCommandLines) {
  // The two command lines of §3.1.
  EXPECT_NO_THROW(parse_counter_spec("+ecstall,lo,+ecrm,on"));
  EXPECT_NO_THROW(parse_counter_spec("+ecref,on,+dtlbm,on"));
}

TEST(CounterSpec, NumericIntervalAndNoBacktrack) {
  const auto specs = parse_counter_spec("dtlbm,9973");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].interval, 9973u);
  EXPECT_FALSE(specs[0].backtrack);
}

TEST(CounterSpec, RegisterConflictRejected) {
  // ecstall and ecref both require PIC0 (as on the real chip, "two counters
  // must be on different registers").
  EXPECT_THROW(parse_counter_spec("+ecstall,on,+ecref,on"), Error);
  EXPECT_THROW(parse_counter_spec("+ecrm,on,+dtlbm,on"), Error);
}

TEST(CounterSpec, ErrorsRejected) {
  EXPECT_THROW(parse_counter_spec("bogus,on"), Error);
  EXPECT_THROW(parse_counter_spec("ecstall"), Error);       // missing rate
  EXPECT_THROW(parse_counter_spec("ecstall,fast"), Error);  // bad rate word
  EXPECT_THROW(parse_counter_spec("cycles,on,insts,on,icm,on"), Error);  // > 2
}

/// The Error message produced by a bad spec ("" if it unexpectedly parses).
std::string spec_error(const std::string& spec) {
  try {
    parse_counter_spec(spec);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(CounterSpec, ConflictMessageNamesBothCountersAndTheRegister) {
  // ecstall and ecref both require PIC0: the error must say which counter
  // could not be scheduled, which register it needs, and who holds it.
  const std::string msg = spec_error("+ecstall,on,+ecref,on");
  EXPECT_NE(msg.find("'ecref'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("PIC0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'ecstall'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("cannot be scheduled"), std::string::npos) << msg;
}

TEST(CounterSpec, UnknownCounterNameIsNamed) {
  const std::string msg = spec_error("bogus,on");
  EXPECT_NE(msg.find("unknown hardware counter: bogus"), std::string::npos) << msg;
}

TEST(CounterSpec, MalformedRatesAreExplained) {
  // A bad rate word names the offender and lists the accepted forms.
  const std::string word = spec_error("ecstall,fast");
  EXPECT_NE(word.find("bad counter rate 'fast'"), std::string::npos) << word;
  EXPECT_NE(word.find("'hi', 'on', 'lo'"), std::string::npos) << word;
  // A zero interval is rejected (the counter would overflow immediately).
  const std::string zero = spec_error("ecstall,0");
  EXPECT_NE(zero.find("must be positive"), std::string::npos) << zero;
  // An empty rate token is rejected too ("ecstall," tokenizes to a pair).
  const std::string empty = spec_error("ecstall,");
  EXPECT_NE(empty.find("empty counter rate"), std::string::npos) << empty;
}

TEST(CounterSpec, DuplicatePlusPrefixRejected) {
  const std::string msg = spec_error("++ecstall,on");
  EXPECT_NE(msg.find("duplicate '+' prefix on counter '++ecstall'"), std::string::npos)
      << msg;
  // A bare '+' has no counter name at all.
  const std::string bare = spec_error("+,on");
  EXPECT_NE(bare.find("missing counter name after '+'"), std::string::npos) << bare;
}

TEST(CounterSpec, OddTokenCountShowsAnExample) {
  const std::string msg = spec_error("ecstall");
  EXPECT_NE(msg.find("name,rate pairs"), std::string::npos) << msg;
  EXPECT_NE(msg.find("+ecstall,on,+ecrm,hi"), std::string::npos) << msg;
}

TEST(CounterSpec, TooManyCountersNamesTheLimit) {
  const std::string msg = spec_error("cycles,on,insts,on,icm,on");
  EXPECT_NE(msg.find("at most 2 hardware counters"), std::string::npos) << msg;
  EXPECT_NE(msg.find("got 3"), std::string::npos) << msg;
}

TEST(CounterSpec, IntervalsArePrime) {
  for (size_t i = 0; i < machine::kNumHwEvents; ++i) {
    for (const char* rate : {"hi", "on", "lo"}) {
      const u64 v = overflow_interval(static_cast<HwEvent>(i), rate);
      EXPECT_EQ(next_prime(v), v) << "interval not prime for event " << i << " rate " << rate;
    }
  }
}

TEST(CounterSpec, ListCountersMentionsEverything) {
  const std::string text = list_counters();
  for (size_t i = 0; i < machine::kNumHwEvents; ++i) {
    EXPECT_NE(text.find(machine::hw_event_info(static_cast<HwEvent>(i)).name),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// End-to-end collection on a DSL program

class CollectorEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto mod = testfix::make_chase_module(3000, 6, 8192);
    image_ = new sym::Image(scc::compile(*mod));
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
  }
  static sym::Image* image_;
};

sym::Image* CollectorEndToEnd::image_ = nullptr;

TEST_F(CollectorEndToEnd, RecordsEventsAndRunsToCompletion) {
  auto ex = testfix::quick_collect(*image_, "+dcrm,97", "on");
  EXPECT_GT(ex.events.size(), 50u);
  EXPECT_GT(ex.total_instructions, 100000u);
  EXPECT_FALSE(ex.log.empty());
  EXPECT_EQ(ex.truth.size(),
            static_cast<size_t>(std::count_if(ex.events.begin(), ex.events.end(),
                                              [](const auto& e) {
                                                return e.pic != machine::kClockPic;
                                              })));
  // Clock samples present too.
  bool any_clock = false;
  for (const auto& e : ex.events) any_clock |= e.pic == machine::kClockPic;
  EXPECT_TRUE(any_clock);
}

TEST_F(CollectorEndToEnd, BatchExportStreamsEveryEventExactlyOnce) {
  // The live-streaming hook (dsprof_send's path into dsprofd): batches handed
  // to batch_export during the run, concatenated, must equal the experiment's
  // final event store field for field — nothing duplicated, nothing missed.
  collect::CollectOptions opt;
  opt.hw = "+dcrm,97";
  opt.clock = "on";
  opt.batch_export_events = 32;
  experiment::EventStore seen;
  size_t batches = 0, last_flags = 0;
  opt.batch_export = [&](const experiment::EventStore& b, bool last) {
    ++batches;
    if (last) {
      ++last_flags;
    } else {
      // Non-final batches fire exactly at the threshold.
      EXPECT_EQ(b.size(), opt.batch_export_events);
    }
    seen.append_store(b);
  };
  collect::Collector c(*image_, opt);
  auto ex = c.run();

  EXPECT_EQ(last_flags, 1u) << "the final flush fires exactly once";
  EXPECT_GT(batches, 2u) << "threshold of 32 must split this run";
  ASSERT_EQ(seen.size(), ex.events.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    const auto e = ex.events[i];
    const auto s = seen[i];
    ASSERT_EQ(s.seq, e.seq) << "event " << i;
    EXPECT_EQ(s.pic, e.pic);
    EXPECT_EQ(s.event, e.event);
    EXPECT_EQ(s.weight, e.weight);
    EXPECT_EQ(s.delivered_pc, e.delivered_pc);
    EXPECT_EQ(s.has_candidate, e.has_candidate);
    EXPECT_EQ(s.candidate_pc, e.candidate_pc);
    EXPECT_EQ(s.has_ea, e.has_ea);
    EXPECT_EQ(s.ea, e.ea);
    EXPECT_TRUE(s.callstack == e.callstack.to_vector());
  }
}

TEST_F(CollectorEndToEnd, BacktrackingFindsTriggersWithGroundTruthAccuracy) {
  auto ex = testfix::quick_collect(*image_, "+dcrm,89");
  std::map<u64, machine::TruthRecord> truth;
  for (const auto& t : ex.truth) truth[t.seq] = t;
  const sym::SymbolTable& st = image_->symtab;

  size_t hw_events = 0, with_candidate = 0, exact = 0, same_object = 0;
  size_t ea_exact = 0, ea_known = 0, ea_checked = 0;
  for (const auto& e : ex.events) {
    if (e.pic == machine::kClockPic) continue;
    ++hw_events;
    if (!e.has_candidate) continue;
    ++with_candidate;
    const auto& t = truth.at(e.seq);
    if (e.candidate_pc == t.trigger_pc) ++exact;
    // Object-level accuracy: when candidate and trigger differ, does the
    // candidate still reference the same data aggregate? (This is what the
    // data-space views depend on.)
    const sym::MemRef* cand_ref = st.memref_for(e.candidate_pc);
    const sym::MemRef* true_ref = st.memref_for(t.trigger_pc);
    if (cand_ref && true_ref && cand_ref->kind == true_ref->kind &&
        cand_ref->aggregate == true_ref->aggregate) {
      ++same_object;
    }
    if (e.has_ea) {
      ++ea_known;
      // The reported EA is the *candidate's* address; it is verifiable
      // against ground truth only when the candidate is the true trigger
      // (otherwise it is the paper's "putative effective address").
      if (e.candidate_pc == t.trigger_pc) {
        ++ea_checked;
        if (t.ea_valid && e.ea == t.ea) ++ea_exact;
      }
    }
  }
  ASSERT_GT(hw_events, 50u);
  // A candidate is nearly always found; in a tight loop (iteration shorter
  // than worst-case skid) it may be a neighbouring memory op, but it almost
  // always names the right data object.
  EXPECT_GT(with_candidate, hw_events * 8 / 10);
  EXPECT_GT(exact, with_candidate / 4);
  EXPECT_GT(same_object, with_candidate * 6 / 10);
  // When the candidate is the true trigger, the recomputed effective address
  // must never be wrong — the collector detects clobbered address registers
  // rather than reporting a bad address.
  EXPECT_EQ(ea_exact, ea_checked);
  EXPECT_GT(ea_known, hw_events / 5);
}

TEST_F(CollectorEndToEnd, DtlbBacktrackingIsPerfect) {
  // Shrink the DTLB so the list + array working set thrashes it.
  machine::CpuConfig cfg;
  cfg.hierarchy.dtlb = {8, 2, 8 * 1024};
  auto ex = testfix::quick_collect(*image_, "+dtlbm,7", "off", cfg);
  std::map<u64, machine::TruthRecord> truth;
  for (const auto& t : ex.truth) truth[t.seq] = t;
  size_t n = 0;
  for (const auto& e : ex.events) {
    if (e.pic == machine::kClockPic) continue;
    ++n;
    ASSERT_TRUE(e.has_candidate);
    EXPECT_EQ(e.candidate_pc, truth.at(e.seq).trigger_pc);
    ASSERT_TRUE(e.has_ea);
    EXPECT_EQ(e.ea, truth.at(e.seq).ea);
  }
  EXPECT_GT(n, 10u);
}

TEST_F(CollectorEndToEnd, NoBacktrackWithoutPlus) {
  auto ex = testfix::quick_collect(*image_, "dcrm,89");
  for (const auto& e : ex.events) {
    if (e.pic == machine::kClockPic) continue;
    EXPECT_FALSE(e.has_candidate);
    EXPECT_FALSE(e.has_ea);
  }
}

TEST_F(CollectorEndToEnd, AllocationLogCaptured) {
  auto ex = testfix::quick_collect(*image_, "+dcrm,997");
  // One node array + one long array.
  EXPECT_EQ(ex.allocations.size(), 2u);
  for (const auto& a : ex.allocations) {
    EXPECT_GE(a.addr, mem::kHeapBase);
    EXPECT_GT(a.size, 0u);
    EXPECT_NE(a.site_pc, 0u);  // noted from inside the program's text
  }
}

TEST_F(CollectorEndToEnd, SampledTotalsEstimateTrueCounts) {
  auto ex = testfix::quick_collect(*image_, "+dcrm,89");
  collect::CollectOptions opt;
  opt.hw = "+dcrm,89";
  collect::Collector c(*image_, opt);
  auto ex2 = c.run();
  const u64 true_total = c.cpu().event_total(machine::HwEvent::DC_rd_miss);
  double est = 0;
  for (const auto& e : ex2.events) {
    if (e.pic != machine::kClockPic) est += static_cast<double>(e.weight);
  }
  ASSERT_GT(true_total, 1000u);
  EXPECT_NEAR(est / static_cast<double>(true_total), 1.0, 0.05);
}

TEST_F(CollectorEndToEnd, ExperimentSaveLoadRoundTrip) {
  auto ex = testfix::quick_collect(*image_, "+dcrm,997", "on");
  const std::string dir = ::testing::TempDir() + "/dsp_experiment_test";
  ex.save(dir);
  const experiment::Experiment back = experiment::Experiment::load(dir);
  EXPECT_EQ(back.events.size(), ex.events.size());
  EXPECT_EQ(back.counters.size(), ex.counters.size());
  EXPECT_EQ(back.total_cycles, ex.total_cycles);
  EXPECT_EQ(back.allocations, ex.allocations);
  EXPECT_EQ(back.truth.size(), ex.truth.size());
  EXPECT_EQ(back.image.text_words, ex.image.text_words);
  EXPECT_EQ(back.log, ex.log);
  for (size_t i = 0; i < std::min<size_t>(ex.events.size(), 20); ++i) {
    EXPECT_EQ(back.events[i].delivered_pc, ex.events[i].delivered_pc);
    EXPECT_EQ(back.events[i].candidate_pc, ex.events[i].candidate_pc);
    EXPECT_EQ(back.events[i].ea, ex.events[i].ea);
  }
}

TEST_F(CollectorEndToEnd, DeterministicAcrossRuns) {
  auto a = testfix::quick_collect(*image_, "+ecrm,211");
  auto b = testfix::quick_collect(*image_, "+ecrm,211");
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].delivered_pc, b.events[i].delivered_pc);
    EXPECT_EQ(a.events[i].candidate_pc, b.events[i].candidate_pc);
  }
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

// ---------------------------------------------------------------------------
// Simulator byte identity: FNV-1a digests of everything a collect run of
// mcf-small produces — the event store, the ground-truth log, the slice
// table and the machine's own totals and counter registers — pinned to the
// digests of the per-instruction simulator the fast path replaced (DESIGN
// §3.9). Any change to timing, counting, skid draws, delivery order or
// multiplexed rotation moves a digest.

class Fnv1a {
 public:
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  u64 value() const { return h_; }

 private:
  u64 h_ = 14695981039346656037ull;
};

struct GoldenDigests {
  u64 events = 0;   // every event column, callstack contents included
  u64 truth = 0;    // truth log + slice table
  u64 machine = 0;  // nine event totals, cycles, instructions, PIC values
};

GoldenDigests golden_run(const std::string& hw, const std::string& clock, u64 slice_cycles) {
  const mcfsim::PaperSetup s = mcfsim::PaperSetup::small();
  const sym::Image image = mcfsim::build_mcf_image(s.build);
  CollectOptions opt;
  opt.hw = hw;
  opt.clock = clock;
  opt.cpu = s.cpu;
  opt.max_instructions = 20'000'000;
  if (slice_cycles != 0) opt.mpx_slice_cycles = slice_cycles;
  Collector col(image, opt);
  const experiment::Experiment ex =
      col.run([&](machine::Cpu& cpu) { mcfsim::write_input(cpu.memory(), s.run); });
  const machine::Cpu& cpu = col.cpu();

  GoldenDigests g;
  Fnv1a ev;
  ev.add(ex.events.size());
  for (const auto& e : ex.events) {
    ev.add(e.pic);
    ev.add(static_cast<u64>(e.event));
    ev.add(e.weight);
    ev.add(e.delivered_pc);
    ev.add(e.has_candidate);
    ev.add(e.candidate_pc);
    ev.add(e.has_ea);
    ev.add(e.ea);
    ev.add(e.seq);
    ev.add(e.set);
    ev.add(e.callstack.size());
    for (const u64 pc : e.callstack) ev.add(pc);
  }
  g.events = ev.value();

  Fnv1a tr;
  tr.add(ex.truth.size());
  for (const auto& t : ex.truth) {
    tr.add(t.seq);
    tr.add(t.pic);
    tr.add(static_cast<u64>(t.event));
    tr.add(t.trigger_pc);
    tr.add(t.ea_valid);
    tr.add(t.ea);
    tr.add(t.skid);
  }
  tr.add(ex.slices.size());
  for (const auto& sl : ex.slices) {
    tr.add(sl.live_cycles);
    tr.add(sl.switches);
  }
  g.truth = tr.value();

  Fnv1a m;
  for (size_t i = 0; i < machine::kNumHwEvents; ++i) {
    m.add(cpu.event_total(static_cast<HwEvent>(i)));
  }
  m.add(cpu.total_cycles());
  m.add(cpu.total_instructions());
  m.add(ex.total_cycles);
  m.add(ex.total_instructions);
  m.add(cpu.pic_value(0));
  m.add(cpu.pic_value(1));
  g.machine = m.value();
  return g;
}

void expect_golden(const std::string& hw, const std::string& clock, u64 slice_cycles,
                   const GoldenDigests& want) {
  const GoldenDigests got = golden_run(hw, clock, slice_cycles);
  EXPECT_EQ(got.events, want.events) << hw << " events";
  EXPECT_EQ(got.truth, want.truth) << hw << " truth log / slices";
  EXPECT_EQ(got.machine, want.machine) << hw << " totals / PIC values";
}

TEST(SimulatorGolden, PaperRun1) {
  expect_golden("+ecstall,20011,+ecrm,211", "hi", 0,
                {14450395501537816548ull, 14155141857723719094ull, 15739851194680285938ull});
}

TEST(SimulatorGolden, PaperRun2) {
  expect_golden("+ecref,997,+dtlbm,101", "off", 0,
                {6487124873604293843ull, 14408675096701344455ull, 3141560569915422420ull});
}

TEST(SimulatorGolden, DenseMultiplexed) {
  expect_golden("+ecstall,2003,+ecrm,23,+ecref,101,+dtlbm,11", "hi", 0,
                {1482048987606272029ull, 16266540297009863611ull, 16144017573939986860ull});
}

TEST(SimulatorGolden, TimeCountersRotatedOnShortSlices) {
  // cycles and insts PICs disabled and re-armed from their residuals every
  // 10007 cycles, beside the clock and the slice timer.
  expect_golden("cycles,10007,insts,9973,+ecrm,61,+dtlbm,13", "on", 10007,
                {8830157152782004524ull, 14057281427990303180ull, 6836642059799993418ull});
}

TEST(SimulatorGolden, InstructionCounterWithClock) {
  expect_golden("insts,991,+ecrm,23", "hi", 0,
                {13331187663231944744ull, 14680305109985958795ull, 5016630724408872425ull});
}

}  // namespace
}  // namespace dsprof::collect

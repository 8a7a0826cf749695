// Counter-set multiplexing, end to end: spec partitioning (and its negative
// paths), the collector's slice rotation and live-cycle accounting, the
// slice-aware file formats (plus corruption handling and non-multiplexed
// byte-compat), the renormalizing reduction, and the wire codecs.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>

#include "analyze/reports.hpp"
#include "dsl_fixtures.hpp"
#include "reduce_oracle.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "temp_dir.hpp"

namespace dsprof {
namespace {

using machine::HwEvent;

// --- spec partitioning ------------------------------------------------------

std::string spec_error(const std::string& spec, bool multiplex) {
  try {
    collect::parse_counter_spec(spec, multiplex);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Every set must be schedulable as-is: set ids contiguous from 0, at most
/// kNumPics counters per set, each on a distinct PIC its mask allows.
void expect_feasible_partition(const std::vector<experiment::CounterSpec>& specs) {
  std::map<unsigned, std::vector<const experiment::CounterSpec*>> sets;
  unsigned max_set = 0;
  for (const auto& c : specs) {
    sets[c.set].push_back(&c);
    max_set = std::max(max_set, c.set);
  }
  EXPECT_EQ(sets.size(), static_cast<size_t>(max_set) + 1) << "set ids must be contiguous";
  for (const auto& [set, members] : sets) {
    ASSERT_LE(members.size(), static_cast<size_t>(machine::kNumPics));
    bool pic_used[machine::kNumPics] = {};
    for (const auto* c : members) {
      ASSERT_LT(c->pic, machine::kNumPics);
      EXPECT_TRUE((machine::hw_event_info(c->event).pic_mask >> c->pic) & 1u)
          << machine::hw_event_info(c->event).name << " scheduled on infeasible PIC"
          << c->pic << " in set " << set;
      EXPECT_FALSE(pic_used[c->pic]) << "two counters share PIC" << c->pic
                                     << " in set " << set;
      pic_used[c->pic] = true;
    }
  }
}

TEST(MultiplexSpec, DuplicateCounterRejected) {
  const std::string msg = spec_error("ecstall,on,ecstall,hi", true);
  EXPECT_NE(msg.find("duplicate counter 'ecstall'"), std::string::npos) << msg;
  // The same check guards the non-multiplexed path.
  EXPECT_NE(spec_error("+dtlbm,on,dtlbm,101", false).find("duplicate counter"),
            std::string::npos);
}

TEST(MultiplexSpec, MoreThanTwoRejectedWhenMultiplexingDisabled) {
  const std::string msg = spec_error("cycles,on,insts,on,icm,on", false);
  EXPECT_NE(msg.find("at most 2 hardware counters"), std::string::npos) << msg;
  EXPECT_NE(msg.find("got 3"), std::string::npos) << msg;
  // The collector surfaces the same error when its slice budget is 0.
  auto mod = testfix::make_chase_module(100, 1, 256);
  const sym::Image img = scc::compile(*mod);
  collect::CollectOptions opt;
  opt.hw = "cycles,on,insts,on,icm,on";
  opt.mpx_slice_cycles = 0;
  EXPECT_THROW(collect::Collector(img, opt), Error);
}

TEST(MultiplexSpec, RegisterConflictStillRejectedWhenMultiplexingDisabled) {
  const std::string msg = spec_error("+ecrm,on,+dtlbm,on", false);
  EXPECT_NE(msg.find("cannot be scheduled"), std::string::npos) << msg;
  EXPECT_NE(msg.find("PIC1"), std::string::npos) << msg;
}

TEST(MultiplexSpec, FourCountersPartitionIntoFeasibleSets) {
  // cycles can run on either PIC, so it yields PIC0 to ecstall (one-level
  // swap); ecrm and dtlbm both fit only PIC1 and land in sets of their own.
  const auto specs =
      collect::parse_counter_spec("cycles,100003,+ecstall,on,+ecrm,on,+dtlbm,on", true);
  ASSERT_EQ(specs.size(), 4u);
  expect_feasible_partition(specs);
  EXPECT_EQ(specs[0].set, 0u);  // cycles
  EXPECT_EQ(specs[0].pic, 1u);
  EXPECT_EQ(specs[1].set, 0u);  // ecstall
  EXPECT_EQ(specs[1].pic, 0u);
  EXPECT_EQ(specs[2].set, 1u);  // ecrm
  EXPECT_EQ(specs[3].set, 2u);  // dtlbm
}

TEST(MultiplexSpec, TwoCountersStayDedicatedUnderMultiplexing) {
  // A spec that fits the registers must get the identical single-set
  // assignment whether or not multiplexing is available (the byte-identity
  // precondition: nothing changes for existing command lines).
  const auto mpx = collect::parse_counter_spec("+ecstall,on,+ecrm,on", true);
  const auto ded = collect::parse_counter_spec("+ecstall,on,+ecrm,on");
  ASSERT_EQ(mpx.size(), ded.size());
  for (size_t i = 0; i < mpx.size(); ++i) {
    EXPECT_EQ(mpx[i].set, 0u);
    EXPECT_EQ(mpx[i].pic, ded[i].pic);
    EXPECT_EQ(mpx[i].event, ded[i].event);
  }
}

TEST(MultiplexSpec, AllNineCountersPartition) {
  std::string spec;
  for (size_t i = 0; i < machine::kNumHwEvents; ++i) {
    if (!spec.empty()) spec += ",";
    spec += machine::hw_event_info(static_cast<HwEvent>(i)).name;
    spec += ",on";
  }
  const auto specs = collect::parse_counter_spec(spec, true);
  ASSERT_EQ(specs.size(), machine::kNumHwEvents);
  expect_feasible_partition(specs);
}

// --- collection: slice rotation + accounting --------------------------------

class MultiplexCollect : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto mod = testfix::make_chase_module(3000, 8, 8192);
    image_ = new sym::Image(scc::compile(*mod));
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
  }

  struct MpxRun {
    std::unique_ptr<collect::Collector> c;  // kept alive for cpu() oracles
    experiment::Experiment ex;
  };

  /// A 4-counter spec that partitions into two sets on this machine:
  /// {ecstall PIC0, ecrm PIC1} / {dcrm PIC0, dtlbm PIC1}. The small DTLB
  /// makes the chase thrash it so every counter has events.
  static MpxRun collect_mpx() {
    collect::CollectOptions opt;
    opt.hw = "+ecstall,199,+ecrm,61,+dcrm,31,+dtlbm,13";
    opt.clock = "on";
    opt.mpx_slice_cycles = 10007;  // short slices: many rotations in a short run
    // A hostile hierarchy so every counter in the spec has plenty of events:
    // the 3000-node chase overflows the tiny D$ and E$ and thrashes the DTLB.
    opt.cpu.hierarchy.dcache = {4 * 1024, 2, 32, /*write_allocate=*/false};
    opt.cpu.hierarchy.ecache = {16 * 1024, 2, 512, /*write_allocate=*/true};
    opt.cpu.hierarchy.dtlb = {8, 2, 8 * 1024};
    MpxRun r;
    r.c = std::make_unique<collect::Collector>(*image_, opt);
    r.ex = r.c->run();
    return r;
  }

  static sym::Image* image_;
};

sym::Image* MultiplexCollect::image_ = nullptr;

TEST_F(MultiplexCollect, RotatesSetsAndAccountsLiveCycles) {
  const auto ex = collect_mpx().ex;
  ASSERT_TRUE(ex.multiplexed());
  ASSERT_EQ(ex.slices.size(), 2u);
  u64 live = 0;
  for (const auto& s : ex.slices) {
    EXPECT_GT(s.live_cycles, 0u);
    EXPECT_GT(s.switches, 2u) << "the run must rotate through each set repeatedly";
    live += s.live_cycles;
  }
  EXPECT_EQ(live, ex.total_cycles) << "live cycles must partition the run exactly";
  EXPECT_NE(ex.log.find("multiplex: 2 counter sets"), std::string::npos) << ex.log;

  // Every hardware overflow is stamped with the set its counter belongs to;
  // clock samples carry whichever set was live at delivery.
  std::array<u8, machine::kNumHwEvents> set_of{};
  for (const auto& c : ex.counters) set_of[static_cast<size_t>(c.event)] = static_cast<u8>(c.set);
  size_t hw_events = 0;
  for (size_t i = 0; i < ex.events.size(); ++i) {
    const auto e = ex.events[i];
    if (e.pic == machine::kClockPic) {
      EXPECT_LT(e.set, ex.slices.size());
      continue;
    }
    ++hw_events;
    EXPECT_EQ(e.set, set_of[static_cast<size_t>(e.event)]) << "event " << i;
  }
  EXPECT_GT(hw_events, 100u);
}

TEST_F(MultiplexCollect, RenormalizedTotalsMatchTheUnsampledOracle) {
  const auto run = collect_mpx();
  const auto& ex = run.ex;
  const analyze::Analysis a(ex);
  ASSERT_TRUE(a.multiplexed());

  // Per-event sample counts (to skip metrics too sparse to estimate).
  std::array<u64, machine::kNumHwEvents> samples{};
  for (size_t i = 0; i < ex.events.size(); ++i) {
    const auto e = ex.events[i];
    if (e.pic != machine::kClockPic) ++samples[static_cast<size_t>(e.event)];
  }

  size_t compared = 0;
  for (const auto& spec : ex.counters) {
    const size_t m = static_cast<size_t>(spec.event);
    const double truth = static_cast<double>(run.c->cpu().event_total(spec.event));
    EXPECT_GT(a.metric_scale(m), 1.5) << "each set is live for about half the run";
    EXPECT_LT(a.metric_scale(m), 2.7);
    if (samples[m] > 0) {
      EXPECT_GT(a.metric_stderr(m), 0.0);
    }
    if (samples[m] < 50 || truth < 1000) continue;  // too sparse to estimate
    ++compared;
    EXPECT_NEAR(a.total()[m] / truth, 1.0, 0.30)
        << machine::hw_event_info(spec.event).name << ": renormalized "
        << a.total()[m] << " vs true " << truth;
  }
  EXPECT_GE(compared, 2u) << "the workload must exercise enough counters to check";
  // The clock metric is live for the whole run: scaled by exactly 1.0.
  EXPECT_EQ(a.metric_scale(analyze::kUserCpuMetric), 1.0);
}

TEST_F(MultiplexCollect, ReportsAnnotateScalesOnlyWhenMultiplexed) {
  const auto ex = collect_mpx().ex;
  const analyze::Analysis a(ex);
  EXPECT_NE(analyze::render_overview(a).find("Scaled x"), std::string::npos);
  EXPECT_NE(analyze::render_function_list(a).find("renormalized"), std::string::npos);
  EXPECT_NE(analyze::render_json_report(a).find("\"mpx\":{"), std::string::npos);

  const auto ded = testfix::quick_collect(*image_, "+ecrm,61", "on");
  const analyze::Analysis b(ded);
  EXPECT_FALSE(b.multiplexed());
  for (size_t m = 0; m < analyze::kNumMetrics; ++m) EXPECT_EQ(b.metric_scale(m), 1.0);
  EXPECT_EQ(analyze::render_overview(b).find("Scaled x"), std::string::npos);
  EXPECT_EQ(analyze::render_json_report(b).find("\"mpx\""), std::string::npos);
}

TEST_F(MultiplexCollect, ReductionEnginesAgreeOnMultiplexedProfiles) {
  // The product fold against the std::map oracle on a multiplexed profile.
  const auto ex = collect_mpx().ex;
  EXPECT_EQ(analyze::render_json_report(analyze::Analysis(ex)),
            analyze::render_json_report(analyze::Analysis(ex, oracle::reduce({&ex}))));
}

// --- the slice-aware events.bin ----------------------------------------------

u32 events_magic(const std::string& dir) {
  std::ifstream in(dir + "/events.bin", std::ios::binary);
  char b[4] = {};
  in.read(b, 4);
  u32 m = 0;
  std::memcpy(&m, b, 4);
  return m;
}

TEST_F(MultiplexCollect, SaveLoadRoundTripsSlicesInEveryFormat) {
  // events.bin has one layout; it carries set ids and the slice table.
  const auto ex = collect_mpx().ex;
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex.save(dir);
  EXPECT_EQ(events_magic(dir), 0x4453504Au);  // "DSPJ"
  const auto back = experiment::Experiment::load(dir);
  ASSERT_EQ(back.slices.size(), ex.slices.size());
  for (size_t i = 0; i < ex.slices.size(); ++i) {
    EXPECT_EQ(back.slices[i].live_cycles, ex.slices[i].live_cycles);
    EXPECT_EQ(back.slices[i].switches, ex.slices[i].switches);
  }
  ASSERT_EQ(back.counters.size(), ex.counters.size());
  for (size_t i = 0; i < ex.counters.size(); ++i) {
    EXPECT_EQ(back.counters[i].set, ex.counters[i].set);
  }
  ASSERT_EQ(back.events.size(), ex.events.size());
  for (size_t i = 0; i < ex.events.size(); ++i) {
    ASSERT_EQ(back.events[i].set, ex.events[i].set) << "event " << i;
  }
  // The round-tripped profile renders identically to the in-memory one.
  EXPECT_EQ(analyze::render_json_report(analyze::Analysis(back)),
            analyze::render_json_report(analyze::Analysis(ex)));
}

TEST_F(MultiplexCollect, NonMultiplexedSavesLoadAsOneAlwaysLiveSet) {
  // A run that fits the registers saves the same layout with an empty slice
  // table and a zero set column, and loads back as one always-live set:
  // scale 1.0 everywhere, the same report as the in-memory run.
  const auto ex = testfix::quick_collect(*image_, "+ecrm,61", "on");
  ASSERT_TRUE(ex.slices.empty());
  const testfix::ScopedTempDir tmp;
  const std::string dir = tmp.path("exp");
  ex.save(dir);
  EXPECT_EQ(events_magic(dir), 0x4453504Au);  // "DSPJ"
  const auto back = experiment::Experiment::load(dir);
  EXPECT_TRUE(back.slices.empty());
  EXPECT_FALSE(back.multiplexed());
  for (const auto& c : back.counters) EXPECT_EQ(c.set, 0u);
  ASSERT_EQ(back.events.size(), ex.events.size());
  for (size_t i = 0; i < back.events.size(); ++i) {
    ASSERT_EQ(back.events[i].set, 0u) << "event " << i;
  }
  EXPECT_EQ(analyze::render_json_report(analyze::Analysis(back)),
            analyze::render_json_report(analyze::Analysis(ex)));
}

TEST_F(MultiplexCollect, CorruptSliceTablesFailWithStructuredErrors) {
  auto ex = collect_mpx().ex;
  const testfix::ScopedTempDir tmp;
  const std::string base = tmp.path("exp");

  // A counter pointing past the slice table.
  {
    auto bad = ex;
    bad.counters[1].set = 7;
    bad.save(base + "_setid");
    try {
      (void)experiment::Experiment::load(base + "_setid");
      FAIL() << "out-of-range set id must not load";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("outside the"), std::string::npos) << e.what();
    }
  }

  // More slice-table entries than counters is implausible on its face.
  {
    auto bad = ex;
    bad.slices.resize(7);
    bad.save(base + "_count");
    try {
      (void)experiment::Experiment::load(base + "_count");
      FAIL() << "implausible slice-table size must not load";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("implausible slice-table set count"),
                std::string::npos)
          << e.what();
    }
  }

  // A truncated file dies on a bytestream invariant, not a crash.
  {
    ex.save(base + "_trunc");
    std::ifstream in(base + "_trunc/events.bin", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), {});
    in.close();
    ASSERT_GT(bytes.size(), 120u);
    std::ofstream out(base + "_trunc/events.bin", std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 120);  // mid-header: inside counters/slice table
    out.close();
    EXPECT_THROW((void)experiment::Experiment::load(base + "_trunc"), Error);
  }
}

// --- wire codecs -------------------------------------------------------------

TEST_F(MultiplexCollect, WireHelloCarriesSetsAndSlices) {
  const auto ex = collect_mpx().ex;
  std::string name;
  experiment::Experiment back;
  ASSERT_TRUE(serve::decode_hello(serve::encode_hello("mpx-test", ex), name, back).ok());
  EXPECT_EQ(name, "mpx-test");
  ASSERT_EQ(back.counters.size(), ex.counters.size());
  for (size_t i = 0; i < ex.counters.size(); ++i) {
    EXPECT_EQ(back.counters[i].set, ex.counters[i].set);
  }
  ASSERT_EQ(back.slices.size(), ex.slices.size());
  for (size_t i = 0; i < ex.slices.size(); ++i) {
    EXPECT_EQ(back.slices[i].live_cycles, ex.slices[i].live_cycles);
    EXPECT_EQ(back.slices[i].switches, ex.slices[i].switches);
  }

  // A live collector announces its multiplexed counters before any slice
  // has run: set ids without a slice table are accepted on the wire.
  auto live = ex;
  live.slices.clear();
  ASSERT_TRUE(serve::decode_hello(serve::encode_hello("live", live), name, back).ok());
  EXPECT_TRUE(back.slices.empty());

  // An implausible slice table is rejected as Malformed, not adopted.
  auto bad = ex;
  bad.slices.resize(machine::kNumHwEvents + 1);
  const serve::Status st = serve::decode_hello(serve::encode_hello("mpx-test", bad), name, back);
  EXPECT_EQ(st.code, serve::StatusCode::Malformed);
  EXPECT_NE(st.message.find("implausible slice-table set count"), std::string::npos)
      << st.message;
}

TEST_F(MultiplexCollect, WireEventBatchCarriesTheSetColumn) {
  const auto ex = collect_mpx().ex;
  std::vector<u8> payload = serve::encode_event_batch(ex.events);
  experiment::EventStore back;
  ASSERT_TRUE(serve::decode_event_batch(std::move(payload), back).ok());
  ASSERT_EQ(back.size(), ex.events.size());
  bool any_nonzero = false;
  for (size_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(back[i].set, ex.events[i].set) << "event " << i;
    any_nonzero |= back[i].set != 0;
  }
  EXPECT_TRUE(any_nonzero) << "a multiplexed run must have events beyond set 0";
}

// --- multiplexing through the daemon and the fleet merge --------------------

TEST_F(MultiplexCollect, StreamedSnapshotsRenormalizeLikeOffline) {
  // The daemon path: stream a multiplexed run into a server session and
  // snapshot — must render byte-for-byte the offline analysis, standard
  // errors included. The snapshot path has no events.bin to recount, so
  // the per-metric sample counts must travel with the reduction itself.
  const auto run = collect_mpx();
  serve::Server server;
  auto [client_end, server_end] = serve::make_pipe_pair();
  server.add_session(std::move(server_end));
  serve::Client client(std::move(client_end));
  serve::Accounting acct;
  ASSERT_TRUE(serve::stream_experiment(client, run.ex, 777, acct).ok());
  std::string json;
  ASSERT_TRUE(client.snapshot(acct, json).ok());
  EXPECT_EQ(json, analyze::render_json_report(analyze::Analysis(run.ex)));
  ASSERT_TRUE(client.close(acct).ok());
  server.stop();
}

TEST_F(MultiplexCollect, MixedMultiplexedAndPlainDirsMergeExactly) {
  // merge_results over one multiplexed and one dedicated-counter dir must
  // render the bytes of the offline multi-dir reduction of the same pair:
  // each dir's own slice table drives its renormalization (the plain dir
  // scales by exactly 1.0), and merging happens on the raw integer counts
  // *before* any scaling.
  const auto run = collect_mpx();
  const auto plain = testfix::quick_collect(*image_, "+ecrm,61", "on");
  const std::vector<const experiment::Experiment*> both = {&run.ex, &plain};
  const std::string offline = analyze::render_json_report(analyze::Analysis(both));

  const analyze::ReductionResult a = analyze::Reduction::run({&run.ex});
  const analyze::ReductionResult b = analyze::Reduction::run({&plain});
  analyze::ReductionResult merged = analyze::merge_results({&a, &b});
  analyze::Analysis m(both, std::move(merged));
  EXPECT_EQ(analyze::render_json_report(m), offline);

  // Same identity through the server: two sessions (one mpx, one plain),
  // one merged fleet snapshot.
  serve::Server server;
  for (const auto* ex : both) {
    auto [client_end, server_end] = serve::make_pipe_pair();
    server.add_session(std::move(server_end));
    serve::Client client(std::move(client_end));
    serve::Accounting acct;
    ASSERT_TRUE(serve::stream_experiment(client, *ex, 1024, acct).ok());
    ASSERT_TRUE(client.close(acct).ok());
  }
  server.wait_all();
  auto [m_end, s_end] = serve::make_pipe_pair();
  server.add_session(std::move(s_end));
  serve::Client monitor(std::move(m_end));
  serve::Accounting macct;
  std::string merged_json;
  ASSERT_TRUE(monitor.merged_snapshot(macct, merged_json).ok());
  EXPECT_EQ(merged_json, offline);
  server.stop();
}

}  // namespace
}  // namespace dsprof

// Robustness and edge-case tests across modules, and a seeded mutation
// fuzzer over the two trust boundaries: events.bin (mapped from disk) and the
// wire Hello / EventBatch payloads (read from the network).
#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "analyze/reduction.hpp"
#include "analyze/reports.hpp"
#include "dsl_fixtures.hpp"
#include "isa/assembler.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"
#include "temp_dir.hpp"

namespace dsprof {
namespace {

using machine::HwEvent;

TEST(DecodeRobustness, ArbitraryWordsNeverCrash) {
  // Every 32-bit word either decodes to a valid instruction (which must
  // re-encode to itself) or to ILLEGAL. Fuzz a million words.
  Xoshiro256 rng(1234);
  size_t valid = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const u32 w = static_cast<u32>(rng.next());
    const isa::Instr ins = isa::decode(w);
    if (ins.op == isa::Op::ILLEGAL) continue;
    ++valid;
    EXPECT_EQ(isa::encode(ins), w) << std::hex << w;
    // Disassembly of any valid instruction is printable and non-empty.
    const std::string text = isa::disassemble(ins, 0x100000000ull);
    EXPECT_FALSE(text.empty());
  }
  EXPECT_GT(valid, 100'000u);  // a decent fraction of the space is valid
}

TEST(DecodeRobustness, DisassembleIllegalIsSafe) {
  EXPECT_EQ(isa::disassemble(isa::decode(0), 0), "illegal");
}

TEST(MachineEdge, ArithmeticExtremes) {
  using namespace isa;
  // Multiplication wraps in two's complement; only division by zero traps.
  mem::Memory m;
  isa::Assembler a(mem::kTextBase);
  a.set64(O1, std::numeric_limits<i64>::min(), G7);
  a.emit(mov_ri(O2, 1));
  a.emit(alu_rr(Op::SUB, O2, G0, O2));  // %o2 = -1
  a.emit(alu_rr(Op::MULX, O0, O1, O2));
  a.emit(hcall(0));
  auto out = a.finish();
  m.add_segment({"text", mem::SegKind::Text, mem::kTextBase, round_up(out.words.size() * 4, 8),
                 false, true});
  m.write_bytes(mem::kTextBase, out.words.data(), out.words.size() * 4);
  machine::Cpu cpu(m, machine::CpuConfig{});
  cpu.set_pc(mem::kTextBase);
  const auto r = cpu.run(100);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.exit_code, std::numeric_limits<i64>::min());
}

TEST(MachineEdge, BothPicsCountSimultaneously) {
  auto mod = testfix::make_chase_module(3000, 6, 8192);
  const sym::Image img = scc::compile(*mod);
  mem::Memory m;
  img.load_into(m);
  machine::CpuConfig cfg;
  cfg.hierarchy.dtlb = {8, 2, 8 * 1024};  // make DTLB misses plentiful
  machine::Cpu cpu(m, cfg);
  cpu.configure_pic(0, HwEvent::DC_rd_miss, 53);
  cpu.configure_pic(1, HwEvent::DTLB_miss, 29);
  size_t pic0 = 0, pic1 = 0;
  cpu.on_overflow = [&](const machine::OverflowDelivery& d) {
    if (d.pic == 0) {
      ++pic0;
      EXPECT_EQ(d.event, HwEvent::DC_rd_miss);
    } else if (d.pic == 1) {
      ++pic1;
      EXPECT_EQ(d.event, HwEvent::DTLB_miss);
    }
  };
  cpu.set_pc(img.entry);
  cpu.run(20'000'000);
  EXPECT_GT(pic0, 10u);
  EXPECT_GT(pic1, 2u);
  const u64 dcrm = cpu.event_total(HwEvent::DC_rd_miss);
  EXPECT_NEAR(static_cast<double>(pic0), static_cast<double>(dcrm) / 53.0,
              static_cast<double>(dcrm) / 53.0 * 0.05 + 2);
}

TEST(MachineEdge, ReconfiguringPicsMidRun) {
  auto mod = testfix::make_chase_module(2000, 30, 4096);
  const sym::Image img = scc::compile(*mod);
  mem::Memory m;
  img.load_into(m);
  machine::CpuConfig cfg;
  cfg.hierarchy.dcache = {2 * 1024, 4, 32, false};
  machine::Cpu cpu(m, cfg);
  cpu.configure_pic(0, HwEvent::DC_rd_miss, 13);
  size_t events = 0;
  cpu.on_overflow = [&](const machine::OverflowDelivery&) { ++events; };
  cpu.set_pc(img.entry);
  cpu.run(300'000);  // past the build loops, into the pointer-chase phase
  const size_t before = events;
  EXPECT_GT(before, 0u);
  cpu.disable_pic(0);
  cpu.run(100'000);
  EXPECT_EQ(events, before);  // disabled: no more deliveries
  cpu.configure_pic(0, HwEvent::DC_rd_miss, 53);
  cpu.run(0);
  EXPECT_GT(events, before);  // re-enabled: counting resumes
}

TEST(HierarchyEdge, DirtyEcLinesWriteBackSilently) {
  cache::HierarchyConfig cfg;
  cfg.dcache = {1024, 1, 32, false};
  cfg.icache = {1024, 1, 32, true};
  cfg.ecache = {2048, 1, 512, true};
  cache::MemoryHierarchy h(cfg);
  // Dirty a line in the tiny E$ (4 lines), then evict it with conflicting
  // loads; nothing should fault and the stats should stay coherent.
  h.store(0x0000);
  for (u64 a = 0; a < 16 * 2048; a += 512) h.load(a);
  EXPECT_EQ(h.ecache().hits() + h.ecache().misses(), h.ecache().accesses());
}

TEST(ReportEdge, EmptyExperimentRendersCleanly) {
  // A run with no hardware counters and no clock samples must not break the
  // renderers.
  auto mod = testfix::make_chase_module(300, 1, 256);
  const sym::Image img = scc::compile(*mod);
  auto ex = testfix::quick_collect(img, "", "off");
  EXPECT_TRUE(ex.events.empty());
  analyze::Analysis a(ex);
  EXPECT_NO_THROW(analyze::render_overview(a));
  EXPECT_NO_THROW(analyze::render_function_list(a));
  EXPECT_NO_THROW(
      analyze::render_data_objects(a, static_cast<size_t>(HwEvent::EC_stall_cycles)));
  EXPECT_NO_THROW(analyze::render_effectiveness(a));
  EXPECT_TRUE(a.effectiveness().empty());
}

TEST(ReportEdge, UnknownFunctionThrows) {
  auto mod = testfix::make_chase_module(300, 1, 256);
  const sym::Image img = scc::compile(*mod);
  auto ex = testfix::quick_collect(img, "+dcrm,97");
  analyze::Analysis a(ex);
  EXPECT_THROW(a.annotated_source("no_such_function"), Error);
  EXPECT_THROW(a.annotated_disassembly("no_such_function"), Error);
  EXPECT_THROW(a.members("no_such_struct"), Error);
}

TEST(CollectEdge, MaxInstructionsStopsTheRun) {
  auto mod = testfix::make_chase_module(2000, 50, 8192);
  const sym::Image img = scc::compile(*mod);
  collect::CollectOptions opt;
  opt.hw = "+dcrm,997";
  opt.max_instructions = 100'000;
  collect::Collector c(img, opt);
  auto ex = c.run();
  EXPECT_LE(ex.total_instructions, 110'000u);
  // A truncated run still yields a consistent experiment.
  analyze::Analysis a(ex);
  EXPECT_GE(a.total()[static_cast<size_t>(HwEvent::DC_rd_miss)], 0.0);
}

TEST(CollectEdge, ClockOnlyProfilingWorks) {
  auto mod = testfix::make_chase_module(800, 4, 1024);
  const sym::Image img = scc::compile(*mod);
  auto ex = testfix::quick_collect(img, "", "9973");
  ASSERT_GT(ex.events.size(), 10u);
  for (const auto& e : ex.events) EXPECT_EQ(e.pic, machine::kClockPic);
  analyze::Analysis a(ex);
  EXPECT_GT(a.total()[analyze::kUserCpuMetric], 0.0);
  EXPECT_DOUBLE_EQ(a.data_total()[analyze::kUserCpuMetric], 0.0);
}

TEST(SccEdge, DeeplyNestedControlFlow) {
  using namespace scc;
  Module m;
  Function* main = m.add_function("main");
  FunctionBuilder fb(m, *main);
  auto x = fb.local("x", Type::i64());
  fb.set(x, 0);
  // 8 levels of nested ifs and loops.
  std::function<void(int)> nest = [&](int depth) {
    if (depth == 0) {
      fb.set(x, x + 1);
      return;
    }
    fb.if_else(x >= 0, [&] { nest(depth - 1); }, [&] { fb.set(x, x - 1000); });
  };
  auto i = fb.local("i", Type::i64());
  fb.set(i, 0);
  fb.while_(i < 10, [&] {
    nest(8);
    fb.set(i, i + 1);
  });
  fb.ret(x);
  const sym::Image img = compile(m);
  mem::Memory mem;
  img.load_into(mem);
  machine::Cpu cpu(mem, machine::CpuConfig{});
  cpu.set_pc(img.entry);
  EXPECT_EQ(cpu.run(100000).exit_code, 10);
}

TEST(SccEdge, EmptyLoopBodiesAndConstantConditions) {
  using namespace scc;
  Module m;
  Function* main = m.add_function("main");
  FunctionBuilder fb(m, *main);
  auto x = fb.local("x", Type::i64());
  fb.set(x, 7);
  fb.while_(Val(0) == 1, [&] { fb.set(x, 999); });  // never runs
  fb.if_(Val(1) == 1, [&] {});                      // empty body
  fb.ret(x);
  const sym::Image img = compile(m);
  mem::Memory mem;
  img.load_into(mem);
  machine::Cpu cpu(mem, machine::CpuConfig{});
  cpu.set_pc(img.entry);
  EXPECT_EQ(cpu.run(10000).exit_code, 7);
}

// --- seeded mutation fuzzing of the trust boundaries -------------------------
// Corpora are the events.bin, Hello and EventBatch bytes of one plain and one
// multiplexed collect of the chase fixture. Each iteration applies one to
// three mutations — a byte flip, a truncation, or a u32/u64 field (a known
// count or run-header size field, or any aligned word) filled with 0x00 or
// 0xFF. The oracle:
// Experiment::load throws only dsprof::Error, decode_* never throws, and
// whatever is accepted runs through Analysis, the JSON report, the page and
// line views and IncrementalReducer::fold raising nothing but dsprof::Error
// (and, in the sanitizer builds, no sanitizer report). Seeds are fixed, so
// every run mutates the same bytes.

struct FuzzCorpus {
  experiment::Experiment ex;          // the collected run
  std::vector<u8> bytes;              // the encoding under test
  std::vector<std::pair<size_t, size_t>> fields;  // (offset, width) to fill
};

/// The run header at `at` in `c.bytes`: its counter count, its six u64
/// clock/geometry/total fields and its slice count. Returns its end.
size_t add_run_header_fields(size_t at, FuzzCorpus& c) {
  c.fields.emplace_back(at, 4);
  at += 4 + 12 * c.ex.counters.size();
  for (int i = 0; i < 6; ++i, at += 8) c.fields.emplace_back(at, 8);
  c.fields.emplace_back(at, 4);
  return at + 4 + 16 * c.ex.slices.size();
}

/// The 12 column counts of the aligned EventStore encoding at `at` in
/// `c.bytes` (EventStore::serialize_aligned's layout). Returns its end.
size_t add_column_counts(size_t at, FuzzCorpus& c) {
  static constexpr size_t kElem[] = {1, 1, 8, 8, 1, 8, 8, 8, 8, 4, 8, 1};
  for (const size_t elem : kElem) {
    c.fields.emplace_back(at, 8);
    u64 n = 0;
    std::memcpy(&n, c.bytes.data() + at, 8);
    at = round_up(at + 8, 8) + n * elem;
  }
  return at;
}

experiment::Experiment fuzz_collect(bool multiplexed) {
  static const sym::Image image = scc::compile(*testfix::make_chase_module(600, 3, 1024));
  collect::CollectOptions opt;
  opt.clock = "on";
  opt.cpu.hierarchy.dcache = {4 * 1024, 2, 32, /*write_allocate=*/false};
  opt.cpu.hierarchy.ecache = {16 * 1024, 2, 512, /*write_allocate=*/true};
  opt.cpu.hierarchy.dtlb = {8, 2, 8 * 1024};
  if (multiplexed) {
    opt.hw = "+ecstall,199,+ecrm,61,+dcrm,31,+dtlbm,13";
    opt.mpx_slice_cycles = 10007;
  } else {
    opt.hw = "+ecstall,199,+ecrm,61";
  }
  collect::Collector c(image, opt);
  experiment::Experiment ex = c.run();
  EXPECT_GT(ex.events.size(), 50u);
  EXPECT_EQ(ex.multiplexed(), multiplexed);
  return ex;
}

/// Mutate a copy of `c.bytes` with 1-3 random mutations.
std::vector<u8> mutate(const FuzzCorpus& c, Xoshiro256& rng) {
  std::vector<u8> b = c.bytes;
  const int n = 1 + static_cast<int>(rng.next() % 3);
  for (int k = 0; k < n && !b.empty(); ++k) {
    const u64 pick = rng.next() % 8;
    const u8 fill = rng.next() % 2 != 0 ? 0xFF : 0x00;
    if (pick < 3) {
      b[rng.next() % b.size()] ^= static_cast<u8>(1 + rng.next() % 255);
    } else if (pick == 3) {
      b.resize(rng.next() % b.size());
    } else if (pick < 6 && !c.fields.empty()) {
      const auto [at, width] = c.fields[rng.next() % c.fields.size()];
      if (at + width <= b.size()) std::memset(b.data() + at, fill, width);
    } else {
      const size_t width = pick == 6 ? 4 : 8;
      if (b.size() >= width) {
        const size_t at = (rng.next() % (b.size() - width + 1)) / width * width;
        std::memset(b.data() + at, fill, width);
      }
    }
  }
  return b;
}

/// Run an accepted experiment through the analyzer surfaces. dsprof::Error
/// is an acceptable verdict on hostile input; anything else propagates and
/// fails the test.
void exercise(const experiment::Experiment& ex) {
  try {
    const analyze::Analysis a(ex);
    (void)analyze::render_json_report(a);
    for (const size_t m : {analyze::kUserCpuMetric, static_cast<size_t>(HwEvent::EC_rd_miss)}) {
      (void)analyze::render_pages(a, m);
      (void)analyze::render_cache_lines(a, m);
    }
    analyze::IncrementalReducer reducer(ex.image.symtab, ex.counters);
    reducer.fold(ex.events, 0, ex.events.size());
  } catch (const Error&) {
  }
}

constexpr int kFuzzIterations = 5000;  // per corpus: about 3 s for the three tests

TEST(FuzzBoundaries, EventsBinMutationsFailCleanly) {
  for (const bool mpx : {false, true}) {
    FuzzCorpus c;
    c.ex = fuzz_collect(mpx);
    const testfix::ScopedTempDir tmp;
    const std::string dir = tmp.path("exp");
    c.ex.save(dir);
    c.bytes = read_file(dir + "/events.bin");
    // Known fields: the run header, the column counts, and the trailer's
    // allocation and truth counts.
    const size_t trailer = add_column_counts(add_run_header_fields(4, c), c);
    c.fields.emplace_back(trailer, 4);
    c.fields.emplace_back(trailer + 4 + 24 * c.ex.allocations.size(), 4);

    Xoshiro256 rng(mpx ? 0xE7E27B1 : 0xE7E27B0);
    size_t accepted = 0;
    for (int i = 0; i < kFuzzIterations; ++i) {
      write_file(dir + "/events.bin", mutate(c, rng));
      try {
        const experiment::Experiment ex = experiment::Experiment::load(dir);
        ++accepted;
        exercise(ex);
      } catch (const Error& e) {
        ASSERT_NE(std::string(e.what()).find("events.bin"), std::string::npos) << e.what();
      }
    }
    // Flips inside event payloads leave the structure valid: the fuzzer must
    // reach the analyzer, not just the header checks.
    EXPECT_GT(accepted, 0u);
  }
}

TEST(FuzzBoundaries, HelloMutationsDecodeCleanly) {
  for (const bool mpx : {false, true}) {
    FuzzCorpus c;
    c.ex = fuzz_collect(mpx);
    c.bytes = serve::encode_hello("fuzz", c.ex);
    ByteWriter header;
    experiment::put_run_header(header, c.ex);
    // Known fields: the name length, the image's text word count and the
    // run header at the end of the payload.
    c.fields = {{0, 4}, {4 + 4 + 8, 4}};
    add_run_header_fields(c.bytes.size() - header.bytes().size(), c);

    Xoshiro256 rng(mpx ? 0x4E110B1 : 0x4E110B0);
    size_t accepted = 0;
    for (int i = 0; i < kFuzzIterations; ++i) {
      const std::vector<u8> payload = mutate(c, rng);
      std::string name;
      experiment::Experiment ex;
      serve::Status st;
      try {
        st = serve::decode_hello(payload, name, ex);
      } catch (...) {
        FAIL() << "decode_hello threw on iteration " << i;
      }
      if (!st.ok()) {
        ASSERT_EQ(st.code, serve::StatusCode::Malformed);
        continue;
      }
      ++accepted;
      ex.events = c.ex.events;  // the session's events under the hostile context
      exercise(ex);
    }
    EXPECT_GT(accepted, 0u);
  }
}

TEST(FuzzBoundaries, EventBatchMutationsDecodeCleanly) {
  for (const bool mpx : {false, true}) {
    FuzzCorpus c;
    c.ex = fuzz_collect(mpx);
    c.bytes = serve::encode_event_batch(c.ex.events, 0, std::min<size_t>(c.ex.events.size(), 300));
    add_column_counts(0, c);

    Xoshiro256 rng(mpx ? 0xBA7C41 : 0xBA7C40);
    size_t accepted = 0;
    experiment::Experiment ex = c.ex;
    for (int i = 0; i < kFuzzIterations; ++i) {
      std::vector<u8> payload = mutate(c, rng);
      experiment::EventStore batch;
      serve::Status st;
      try {
        st = serve::decode_event_batch(std::move(payload), batch);
      } catch (...) {
        FAIL() << "decode_event_batch threw on iteration " << i;
      }
      if (!st.ok()) {
        ASSERT_EQ(st.code, serve::StatusCode::Malformed);
        continue;
      }
      ++accepted;
      ex.events = std::move(batch);
      exercise(ex);
    }
    EXPECT_GT(accepted, 0u);
  }
}

}  // namespace
}  // namespace dsprof

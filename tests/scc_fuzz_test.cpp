// Randomized differential testing of the scc compiler: generate random
// programs while simultaneously evaluating them on the host; the compiled
// DSL program must produce identical results on the simulated machine.
#include <gtest/gtest.h>

#include "backtrack_oracle.hpp"
#include "machine/cpu.hpp"
#include "sa/dataflow.hpp"
#include "sa/lint.hpp"
#include "scc/builder.hpp"
#include "scc/compile.hpp"
#include "support/rng.hpp"

namespace dsprof::scc {
namespace {

std::vector<i64> run_and_trace(const Module& m, u64 max_instr = 2'000'000) {
  const sym::Image img = compile(m);
  mem::Memory mem;
  img.load_into(mem);
  machine::Cpu cpu(mem, machine::CpuConfig{});
  cpu.set_truth_log_enabled(false);
  cpu.set_pc(img.entry);
  const machine::RunResult r = cpu.run(max_instr);
  EXPECT_TRUE(r.halted);
  return cpu.trace();
}

/// Host-side evaluation with the DSL's semantics (i64 wraparound,
/// truncating division, arithmetic right shift).
i64 host_binop(int op, i64 a, i64 b) {
  const u64 ua = static_cast<u64>(a);
  const u64 ub = static_cast<u64>(b);
  switch (op) {
    case 0: return static_cast<i64>(ua + ub);
    case 1: return static_cast<i64>(ua - ub);
    case 2: return static_cast<i64>(ua * ub);
    case 3: return static_cast<i64>(ua & ub);
    case 4: return static_cast<i64>(ua | ub);
    case 5: return static_cast<i64>(ua ^ ub);
    case 6: return static_cast<i64>(ua << (ub & 15));
    case 7: return a >> (b & 15);
    case 8: return a < b ? 1 : 0;
    case 9: return a <= b ? 1 : 0;
    case 10: return a == b ? 1 : 0;
    case 11: return a != b ? 1 : 0;
    case 12: return a / (b | 1);  // divisor forced odd-nonzero
    case 13: return a % (b | 1);
    default: fail("bad op");
  }
}

Val dsl_binop(int op, Val a, Val b) {
  switch (op) {
    case 0: return a + b;
    case 1: return a - b;
    case 2: return a * b;
    case 3: return a & b;
    case 4: return a | b;
    case 5: return a ^ b;
    case 6: return a << (b & 15);
    case 7: return a >> (b & 15);
    case 8: return a < b;
    case 9: return a <= b;
    case 10: return a == b;
    case 11: return a != b;
    case 12: return a / (b | 1);
    case 13: return a % (b | 1);
    default: fail("bad op");
  }
}

class ExprFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(ExprFuzz, StraightLineProgramsMatchHostEvaluation) {
  Xoshiro256 rng(GetParam());
  constexpr int kVars = 6;
  constexpr int kStmts = 60;

  Module m;
  Function* main = m.add_function("main");
  FunctionBuilder fb(m, *main);

  std::vector<Val> vars;
  std::vector<i64> host(kVars);
  for (int v = 0; v < kVars; ++v) {
    vars.push_back(fb.local("v" + std::to_string(v), Type::i64()));
    host[static_cast<size_t>(v)] = static_cast<i64>(rng.next() % 2001) - 1000;
    fb.set(vars[static_cast<size_t>(v)], Val(host[static_cast<size_t>(v)]));
  }

  // Random expression of bounded depth over variables and small constants,
  // evaluated in lockstep on the host.
  std::function<std::pair<Val, i64>(int)> gen = [&](int depth) -> std::pair<Val, i64> {
    const u64 choice = rng.below(depth == 0 ? 2 : 3);
    if (choice == 0) {
      const auto v = static_cast<size_t>(rng.below(kVars));
      return {vars[v], host[v]};
    }
    if (choice == 1) {
      const i64 c = static_cast<i64>(rng.next() % 201) - 100;
      return {Val(c), c};
    }
    const int op = static_cast<int>(rng.below(14));
    auto [la, lh] = gen(depth - 1);
    auto [ra, rh] = gen(depth - 1);
    return {dsl_binop(op, la, ra), host_binop(op, lh, rh)};
  };

  for (int s = 0; s < kStmts; ++s) {
    const auto target = static_cast<size_t>(rng.below(kVars));
    auto [expr, value] = gen(3);
    fb.set(vars[target], expr);
    host[target] = value;
  }
  for (int v = 0; v < kVars; ++v) fb.trace(vars[static_cast<size_t>(v)]);
  fb.ret(Val(0));

  const std::vector<i64> trace = run_and_trace(m);
  ASSERT_EQ(trace.size(), static_cast<size_t>(kVars));
  for (int v = 0; v < kVars; ++v) {
    EXPECT_EQ(trace[static_cast<size_t>(v)], host[static_cast<size_t>(v)])
        << "variable v" << v << " seed " << GetParam();
  }
}

TEST_P(ExprFuzz, BranchyProgramsMatchHostEvaluation) {
  Xoshiro256 rng(GetParam() * 2654435761u + 17);
  constexpr int kVars = 4;

  Module m;
  Function* main = m.add_function("main");
  FunctionBuilder fb(m, *main);
  std::vector<Val> vars;
  std::vector<i64> host(kVars);
  for (int v = 0; v < kVars; ++v) {
    vars.push_back(fb.local("v" + std::to_string(v), Type::i64()));
    host[static_cast<size_t>(v)] = static_cast<i64>(rng.next() % 101) - 50;
    fb.set(vars[static_cast<size_t>(v)], Val(host[static_cast<size_t>(v)]));
  }

  for (int s = 0; s < 25; ++s) {
    const auto a = static_cast<size_t>(rng.below(kVars));
    const auto b = static_cast<size_t>(rng.below(kVars));
    const auto t = static_cast<size_t>(rng.below(kVars));
    const i64 addend = static_cast<i64>(rng.next() % 41) - 20;
    const int kind = static_cast<int>(rng.below(3));
    if (kind == 0) {
      // if (va < vb) vt += c; else vt -= c;
      fb.if_else(vars[a] < vars[b],
                 [&] { fb.set(vars[t], vars[t] + addend); },
                 [&] { fb.set(vars[t], vars[t] - addend); });
      if (host[a] < host[b]) host[t] += addend; else host[t] -= addend;
    } else if (kind == 1) {
      // bounded while: while (vt < limit) vt += step;
      const i64 limit = host[t] + static_cast<i64>(rng.below(300));
      const i64 step = 1 + static_cast<i64>(rng.below(7));
      fb.while_(vars[t] < limit, [&] { fb.set(vars[t], vars[t] + step); });
      while (host[t] < limit) host[t] += step;
    } else {
      // vt = va op vb
      const int op = static_cast<int>(rng.below(14));
      fb.set(vars[t], dsl_binop(op, vars[a], vars[b]));
      host[t] = host_binop(op, host[a], host[b]);
    }
  }
  for (int v = 0; v < kVars; ++v) fb.trace(vars[static_cast<size_t>(v)]);
  fb.ret(Val(0));

  const std::vector<i64> trace = run_and_trace(m);
  ASSERT_EQ(trace.size(), static_cast<size_t>(kVars));
  for (int v = 0; v < kVars; ++v) {
    EXPECT_EQ(trace[static_cast<size_t>(v)], host[static_cast<size_t>(v)])
        << "variable v" << v << " seed " << GetParam();
  }
}

TEST_P(ExprFuzz, StructArrayProgramsMatchHostMirror) {
  Xoshiro256 rng(GetParam() * 40503 + 7);
  constexpr i64 kCount = 64;

  Module m;
  StructDef* cell = m.add_struct("cell");
  cell->field("a", Type::i64()).field("b", Type::i64()).field("c", Type::i64());
  Function* mal = add_runtime(m);
  Function* main = m.add_function("main");
  FunctionBuilder fb(m, *main);
  auto arr = fb.local("arr", Type::ptr(cell));
  fb.set(arr, cast(fb.call(mal, {Val(kCount * static_cast<i64>(cell->size()))}),
                   Type::ptr(cell)));

  struct HostCell {
    i64 a = 0, b = 0, c = 0;
  };
  std::vector<HostCell> mirror(kCount);
  const char* fields[3] = {"a", "b", "c"};

  for (int s = 0; s < 80; ++s) {
    const i64 i = static_cast<i64>(rng.below(kCount));
    const i64 j = static_cast<i64>(rng.below(kCount));
    const int fsrc = static_cast<int>(rng.below(3));
    const int fdst = static_cast<int>(rng.below(3));
    const i64 c = static_cast<i64>(rng.next() % 1001) - 500;
    // arr[i].fdst = arr[j].fsrc + c
    fb.set((arr + i)[fields[fdst]], (arr + j)[fields[fsrc]] + c);
    i64* dst = fdst == 0 ? &mirror[static_cast<size_t>(i)].a
               : fdst == 1 ? &mirror[static_cast<size_t>(i)].b
                           : &mirror[static_cast<size_t>(i)].c;
    const i64 src = fsrc == 0 ? mirror[static_cast<size_t>(j)].a
                    : fsrc == 1 ? mirror[static_cast<size_t>(j)].b
                                : mirror[static_cast<size_t>(j)].c;
    *dst = static_cast<i64>(static_cast<u64>(src) + static_cast<u64>(c));
  }
  // Checksum every field.
  auto sum = fb.local("sum", Type::i64());
  auto i = fb.local("i", Type::i64());
  fb.set(sum, 0);
  fb.set(i, 0);
  fb.while_(i < kCount, [&] {
    fb.set(sum, sum + (arr + i)["a"] + (arr + i)["b"] * 3 + (arr + i)["c"] * 7);
    fb.set(i, i + 1);
  });
  fb.trace(sum);
  fb.ret(Val(0));

  u64 host_sum = 0;
  for (const auto& hc : mirror) {
    host_sum += static_cast<u64>(hc.a) + static_cast<u64>(hc.b) * 3 + static_cast<u64>(hc.c) * 7;
  }
  const std::vector<i64> trace = run_and_trace(m);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(static_cast<u64>(trace[0]), host_sum) << "seed " << GetParam();
}

// Property: on random compiled images, the precomputed sa::BacktrackTable is
// bit-identical to the dynamic reference search for every deliverable PC,
// trigger kind, window size, and register file — and the default-compiled
// output stays hwcprof-lint-clean (no error-severity diagnostics).
TEST_P(ExprFuzz, BacktrackTableMatchesDynamicOnRandomImages) {
  Xoshiro256 rng(GetParam() * 6364136223846793005ULL + 3);
  constexpr i64 kCells = 48;

  // Random control flow over a struct array: loops, branches, loads/stores
  // in bodies and tails — the shapes that stress delay-slot filling, nop
  // padding, and the skid-gap clobber scan.
  Module m;
  StructDef* cell = m.add_struct("cell");
  cell->field("a", Type::i64()).field("b", Type::i64());
  Function* mal = add_runtime(m);
  Function* main = m.add_function("main");
  FunctionBuilder fb(m, *main);
  auto arr = fb.local("arr", Type::ptr(cell));
  auto i = fb.local("i", Type::i64());
  auto acc = fb.local("acc", Type::i64());
  fb.set(arr, cast(fb.call(mal, {Val(kCells * static_cast<i64>(cell->size()))}),
                   Type::ptr(cell)));
  fb.set(acc, 0);
  for (int s = 0; s < 20; ++s) {
    const i64 j = static_cast<i64>(rng.below(kCells));
    const i64 c = static_cast<i64>(rng.next() % 257) - 128;
    switch (rng.below(4)) {
      case 0:  // loop whose body ends with a store
        fb.set(i, 0);
        fb.while_(i < 1 + static_cast<i64>(rng.below(6)), [&] {
          fb.set((arr + j)["a"], (arr + j)["a"] + c);
          fb.set(i, i + 1);
        });
        break;
      case 1:  // branch with memory on one side
        fb.if_else(acc < c, [&] { fb.set(acc, acc + (arr + j)["b"]); },
                   [&] { fb.set(acc, acc - c); });
        break;
      case 2:  // straight-line load/store pair
        fb.set((arr + j)["b"], (arr + j)["a"] ^ c);
        break;
      default:  // ALU-only stretch (varies the pad/skid distances)
        fb.set(acc, acc * 3 + c);
        break;
    }
  }
  fb.ret(acc & 0x7F);
  const sym::Image img = compile(m);

  // Lint: unmodified compiler output must be free of error diagnostics.
  const sa::Cfg cfg = sa::Cfg::build(img);
  const auto diags = sa::lint(img, cfg);
  EXPECT_EQ(sa::count_severity(diags, sa::Severity::Error), 0u) << "seed " << GetParam();

  // Bit-identity sweep: every deliverable PC x both searchable kinds, with
  // fresh random registers per PC, across two window sizes.
  std::array<u64, 32> regs{};
  for (const u32 window : {4u, 16u}) {
    const sa::BacktrackTable table = sa::BacktrackTable::build(img, window);
    for (size_t w = 0; w <= img.text_words.size(); ++w) {
      for (size_t r = 1; r < 32; ++r) regs[r] = rng.next();
      const u64 pc = img.text_base + 4 * w;
      for (const auto kind :
           {machine::TriggerKind::Load, machine::TriggerKind::LoadStore}) {
        const sa::BacktrackAnswer d =
            oracle::backtrack_dynamic(img, pc, kind, regs, window);
        const sa::BacktrackAnswer t = table.query(pc, kind, regs);
        ASSERT_EQ(d.found, t.found)
            << "seed " << GetParam() << " window " << window << " pc " << std::hex << pc;
        ASSERT_EQ(d.candidate_pc, t.candidate_pc)
            << "seed " << GetParam() << " window " << window << " pc " << std::hex << pc;
        ASSERT_EQ(d.ea_known, t.ea_known)
            << "seed " << GetParam() << " window " << window << " pc " << std::hex << pc;
        ASSERT_EQ(d.ea, t.ea)
            << "seed " << GetParam() << " window " << window << " pc " << std::hex << pc;
      }
    }
  }
}

// Property: the static attribution-coverage proof is conservative on random
// compiled images. Ground truth comes from single-stepping the machine: every
// PC it is about to issue (the value a counter delivery would report) must lie
// in the static delivery set, and — since both engines are bit-identical
// (above) — every delivered PC whose table entry statically recovers an EA
// must have its candidate classified Attributable.
TEST_P(ExprFuzz, StaticCoverageIsConservativeOnRandomImages) {
  Xoshiro256 rng(GetParam() * 0x9e3779b97f4a7c15ULL + 11);
  constexpr i64 kCells = 32;

  Module m;
  StructDef* cell = m.add_struct("cell");
  cell->field("a", Type::i64()).field("b", Type::i64());
  Function* mal = add_runtime(m);
  Function* main = m.add_function("main");
  FunctionBuilder fb(m, *main);
  auto arr = fb.local("arr", Type::ptr(cell));
  auto i = fb.local("i", Type::i64());
  auto acc = fb.local("acc", Type::i64());
  fb.set(arr, cast(fb.call(mal, {Val(kCells * static_cast<i64>(cell->size()))}),
                   Type::ptr(cell)));
  fb.set(acc, 0);
  for (int s = 0; s < 12; ++s) {
    const i64 j = static_cast<i64>(rng.below(kCells));
    const i64 c = static_cast<i64>(rng.next() % 257) - 128;
    switch (rng.below(3)) {
      case 0:
        fb.set(i, 0);
        fb.while_(i < 1 + static_cast<i64>(rng.below(4)), [&] {
          fb.set((arr + j)["a"], (arr + j)["a"] + c);
          fb.set(i, i + 1);
        });
        break;
      case 1:
        fb.if_else(acc < c, [&] { fb.set(acc, acc + (arr + j)["b"]); },
                   [&] { fb.set((arr + j)["b"], acc - c); });
        break;
      default:
        fb.set(acc, acc * 5 + c);
        break;
    }
  }
  fb.ret(acc & 0x7F);
  const sym::Image img = compile(m);

  const sa::Cfg cfg = sa::Cfg::build(img);
  const sa::BacktrackTable table = sa::BacktrackTable::build(img, 16);
  const sa::AttributionCoverage cov = sa::AttributionCoverage::build(img, cfg, table);

  // Dynamic half: single-step the program, checking the next-to-issue PC.
  mem::Memory memory;
  img.load_into(memory);
  machine::Cpu cpu(memory, machine::CpuConfig{});
  cpu.set_truth_log_enabled(false);
  cpu.set_pc(img.entry);
  for (size_t steps = 0; steps < 500'000; ++steps) {
    ASSERT_TRUE(cov.is_delivery_point(cpu.pc()))
        << "seed " << GetParam() << " issued pc " << std::hex << cpu.pc();
    if (cpu.run(1).halted) break;
  }
  EXPECT_TRUE(cov.is_delivery_point(cpu.pc())) << "seed " << GetParam();

  // Static half: at every delivery point, a table entry that statically
  // recovers an EA must name an Attributable candidate; one that resolves a
  // candidate at all must never name an op classified Unknown.
  const std::array<u64, 32> regs{};
  for (size_t w = 0; w <= img.text_words.size(); ++w) {
    const u64 pc = img.text_base + 4 * w;
    if (!cov.is_delivery_point(pc)) continue;
    for (const auto kind :
         {machine::TriggerKind::Load, machine::TriggerKind::LoadStore}) {
      const sa::BacktrackAnswer t = table.query(pc, kind, regs);
      if (!t.found) continue;
      const sa::MemOpFact* op = cov.find(t.candidate_pc);
      ASSERT_NE(op, nullptr) << "seed " << GetParam() << " pc " << std::hex << pc;
      EXPECT_NE(op->cls, sa::EaClass::Unknown)
          << "seed " << GetParam() << " pc " << std::hex << pc;
      if (t.ea_known) {
        EXPECT_EQ(op->cls, sa::EaClass::Attributable)
            << "seed " << GetParam() << " candidate " << std::hex << t.candidate_pc;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprFuzz, ::testing::Range<u64>(1, 21));

}  // namespace
}  // namespace dsprof::scc

// PERF — google-benchmark microbenchmarks of the simulator substrate itself:
// cache model throughput, TLB throughput, and interpreter speed on an ALU
// loop and on the memory-bound paper workload.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "collect/collector.hpp"
#include "isa/assembler.hpp"
#include "machine/cpu.hpp"
#include "mcfsim/experiments.hpp"
#include "mcfsim/mcfsim.hpp"
#include "support/rng.hpp"

using namespace dsprof;

namespace {

void BM_CacheHit(benchmark::State& state) {
  cache::Cache c({64 * 1024, 4, 32, true});
  c.access(0x1000, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(0x1000, false).hit);
  }
}
BENCHMARK(BM_CacheHit);

void BM_CacheRandom(benchmark::State& state) {
  cache::Cache c({static_cast<u64>(state.range(0)), 4, 64, true});
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(rng.next() & 0xFFFFFF, false).hit);
  }
}
BENCHMARK(BM_CacheRandom)->Arg(64 * 1024)->Arg(8 * 1024 * 1024);

void BM_TlbLookup(benchmark::State& state) {
  cache::Tlb t({512, 2, 8192});
  Xoshiro256 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup(rng.next() & 0x3FFFFFF));
  }
}
BENCHMARK(BM_TlbLookup);

void BM_HierarchyLoad(benchmark::State& state) {
  cache::MemoryHierarchy h(cache::HierarchyConfig::ultrasparc3());
  Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.load(rng.next() & 0xFFFFFF).stall_cycles);
  }
}
BENCHMARK(BM_HierarchyLoad);

/// Interpreter speed on a tight ALU loop (reports instructions/second).
void BM_InterpreterLoop(benchmark::State& state) {
  mem::Memory m;
  isa::Assembler a(mem::kTextBase);
  const auto head = a.new_label();
  a.emit(isa::mov_ri(isa::O1, 10000));
  a.bind(head);
  a.emit(isa::alu_ri(isa::Op::SUB, isa::O1, isa::O1, 1));
  a.emit(isa::cmp_ri(isa::O1, 0));
  a.emit_branch(isa::Cond::NE, head);
  a.emit(isa::nop());
  a.emit(isa::hcall(0));
  const auto out = a.finish();
  m.add_segment({"text", mem::SegKind::Text, mem::kTextBase, round_up(out.words.size() * 4, 8),
                 false, true});
  m.write_bytes(mem::kTextBase, out.words.data(), out.words.size() * 4);
  u64 instructions = 0;
  for (auto _ : state) {
    machine::Cpu cpu(m, machine::CpuConfig{});
    cpu.set_truth_log_enabled(false);
    cpu.set_pc(mem::kTextBase);
    const machine::RunResult r = cpu.run();
    benchmark::DoNotOptimize(r.cycles);
    instructions += r.instructions;
  }
  state.SetItemsProcessed(static_cast<i64>(instructions));
}
BENCHMARK(BM_InterpreterLoop);

/// Interpreter speed on the memory-bound paper workload: the §3.1 run-1
/// collect (+ecstall,+ecrm with clock profiling hi) over mcf-small, capped
/// at 20M instructions. Reports simulated instructions/second, overflow
/// delivery and backtracking included.
void BM_McfSmallPaperRun1(benchmark::State& state) {
  const mcfsim::PaperSetup s = mcfsim::PaperSetup::small();
  const sym::Image image = mcfsim::build_mcf_image(s.build);
  collect::CollectOptions opt;
  opt.hw = "+ecstall,20011,+ecrm,211";
  opt.clock = "hi";
  opt.cpu = s.cpu;
  opt.max_instructions = 20'000'000;
  u64 instructions = 0;
  for (auto _ : state) {
    collect::Collector c(image, opt);
    const experiment::Experiment ex =
        c.run([&](machine::Cpu& cpu) { mcfsim::write_input(cpu.memory(), s.run); });
    benchmark::DoNotOptimize(ex.events.size());
    instructions += ex.total_instructions;
  }
  state.SetItemsProcessed(static_cast<i64>(instructions));
}
BENCHMARK(BM_McfSmallPaperRun1)->Unit(benchmark::kMillisecond);

void BM_MemoryLoad(benchmark::State& state) {
  mem::Memory m;
  m.add_segment({"heap", mem::SegKind::Heap, mem::kHeapBase, 1 << 26, true, false});
  Xoshiro256 rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.load(mem::kHeapBase + (rng.next() & 0x3FFFF8), 8));
  }
}
BENCHMARK(BM_MemoryLoad);

}  // namespace

// Same --json [path] contract as the plain benches (bench_json.hpp),
// translated into google-benchmark's file-reporter flags.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, fmt_flag;
  for (size_t i = 1; i < args.size(); ++i) {
    if (std::string(args[i]) == "--json") {
      std::string path = "BENCH_micro_sim.json";
      if (i + 1 < args.size() && args[i + 1][0] != '-') {
        path = args[i + 1];
        args.erase(args.begin() + static_cast<long>(i) + 1);
      }
      args.erase(args.begin() + static_cast<long>(i));
      out_flag = "--benchmark_out=" + path;
      fmt_flag = "--benchmark_out_format=json";
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
      break;
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

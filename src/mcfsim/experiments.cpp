#include "mcfsim/experiments.hpp"

namespace dsprof::mcfsim {

namespace {

machine::CpuConfig scaled_machine() {
  machine::CpuConfig cfg;
  cfg.hierarchy.dcache = {16 * 1024, 4, 32, /*write_allocate=*/false};
  cfg.hierarchy.ecache = {128 * 1024, 2, 512, /*write_allocate=*/true};
  cfg.hierarchy.dtlb = {32, 2, 8 * 1024};
  return cfg;
}

}  // namespace

PaperSetup PaperSetup::standard(u64 seed) {
  PaperSetup s;
  s.run.instance.seed = seed;
  s.run.instance.nodes = 1200;
  // A large implicit arc universe, mostly suspended: column generation
  // (price_out_impl) sweeps it every round, as in the vehicle-scheduling
  // original.
  s.run.instance.arcs = 20000;
  s.run.instance.initial_active = 0.30;
  s.run.instance.sources = 6;
  s.run.instance.units = 4;
  s.run.instance.window = 900;  // long-range deadheads: memory-random tree
  s.run.refresh_gap = 6;
  // suspend_impl on, as in the original: arcs cycle out of and back into the
  // active set, driving repeated price_out_impl sweeps of the implicit set.
  s.run.suspend_threshold = s.run.instance.max_cost;
  s.cpu = scaled_machine();
  return s;
}

PaperSetup PaperSetup::small(u64 seed) {
  PaperSetup s = standard(seed);
  s.run.instance.nodes = 800;
  s.run.instance.arcs = 12000;
  s.run.instance.window = 600;
  // Scale the caches with the instance so the behaviour is preserved.
  s.cpu.hierarchy.ecache = {64 * 1024, 2, 512, true};
  s.cpu.hierarchy.dtlb = {8, 2, 8 * 1024};
  return s;
}

PaperExperiments collect_paper_experiments(const PaperSetup& s) {
  const sym::Image image = build_mcf_image(s.build);
  auto collect_one = [&](const std::string& hw, const std::string& clock) {
    collect::CollectOptions opt;
    opt.hw = hw;
    opt.clock = clock;
    opt.cpu = s.cpu;
    collect::Collector c(image, opt);
    return c.run([&](machine::Cpu& cpu) { write_input(cpu.memory(), s.run); });
  };
  PaperExperiments out;
  // The paper's two command lines (§3.1), intervals scaled to the simulated
  // run length (~10^9 cycles) for 10-30k samples per counter.
  // collect -S off -p on  -h +ecstall,...,+ecrm,...  mcf.exe mcf.in
  out.ex1 = collect_one("+ecstall,20011,+ecrm,211", "hi");
  // collect -S off -p off -h +ecref,...,+dtlbm,...   mcf.exe mcf.in
  out.ex2 = collect_one("+ecref,997,+dtlbm,101", "off");
  return out;
}

machine::RunResult measure_run(const PaperSetup& s) {
  const sym::Image image = build_mcf_image(s.build);
  mem::Memory mem;
  image.load_into(mem);
  machine::Cpu cpu(mem, s.cpu);
  cpu.set_truth_log_enabled(false);
  cpu.set_pc(image.entry);
  write_input(mem, s.run);
  machine::RunResult r = cpu.run();
  DSP_CHECK(r.halted, "mcf run did not complete");
  DSP_CHECK(cpu.trace().size() == 4 && cpu.trace()[1] == 0 && cpu.trace()[2] == 0,
            "mcf run did not reach a feasible optimum");
  return r;
}

}  // namespace dsprof::mcfsim

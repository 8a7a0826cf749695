// er_opt — closed-loop feedback-directed data-layout optimizer (the
// automated §3.3 methodology).
//
// Two modes:
//
//   er_opt <experiment-dir>...        offline: analyze a saved profile into
//                                     a member-affinity report and a layout
//                                     plan (printed, or saved via --plan-out)
//   er_opt --run [--workload <name>]  closed loop on a builtin workload:
//                                     profile baseline -> plan -> apply ->
//                                     re-profile -> per-metric delta with
//                                     sampling significance, plus an
//                                     uninstrumented cycle comparison
//
// The plan is written for people (text, also saved by --plan-out) and for
// tools (-J); nothing reads a plan back, so a saved plan is a record of what
// the loop applied (src/opt/plan.hpp).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "opt/driver.hpp"

using namespace dsprof;

namespace {

void print_usage() {
  std::puts(
      "usage: er_opt [<experiment-dir>...] [options]\n"
      "options:\n"
      "  --run              closed loop on a builtin workload: profile,\n"
      "                     plan, apply, re-profile, report deltas\n"
      "  --workload <name>  builtin workload for --run (mcf | mcf-small |\n"
      "                     churn; default mcf-small)\n"
      "  --hw <spec>        counter spec override for the --run profiling\n"
      "                     runs; >2 counters are time-multiplexed\n"
      "  --metric <name>    rank metric short name (default ecstall)\n"
      "  --affinity         print the full affinity/hot-line/page report\n"
      "                     in offline mode (always part of --run output)\n"
      "  --plan-out <file>  also write the plan (text form) to a file\n"
      "  --top <n>          hot E$ lines to report (default 10)\n"
      "  -J                 JSON output: the plan (offline) or the full\n"
      "                     loop report (--run)\n"
      "  --help             print this help and exit\n"
      "run examples/mcf_profile first to produce ./mcf_experiment_{1,2}");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> dirs;
  bool run = false;
  bool json = false;
  bool show_affinity = false;
  std::string workload = "mcf-small";
  std::string plan_out;
  opt::DriverOptions dopt;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--run") == 0) {
        run = true;
      } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
        workload = argv[++i];
      } else if (std::strcmp(argv[i], "--hw") == 0 && i + 1 < argc) {
        dopt.hw = argv[++i];
      } else if (std::strcmp(argv[i], "--metric") == 0 && i + 1 < argc) {
        dopt.metric = analyze::metric_by_short_name(argv[++i]);
      } else if (std::strcmp(argv[i], "--affinity") == 0) {
        show_affinity = true;
      } else if (std::strcmp(argv[i], "--plan-out") == 0 && i + 1 < argc) {
        plan_out = argv[++i];
      } else if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
        dopt.top_lines = static_cast<size_t>(std::stoul(argv[++i]));
      } else if (std::strcmp(argv[i], "-J") == 0) {
        json = true;
      } else if (std::strcmp(argv[i], "--help") == 0) {
        print_usage();
        return 0;
      } else {
        dirs.push_back(argv[i]);
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "er_opt: %s\n", e.what());
    return 2;
  }

  try {
    opt::LayoutPlan plan;
    if (run) {
      const opt::Workload w = opt::workload_by_name(workload);
      const opt::LoopResult r = opt::run_loop(w, dopt);
      plan = r.plan;
      if (json) {
        std::printf("%s\n", opt::loop_to_json(r).c_str());
      } else {
        std::fputs(opt::loop_to_text(r).c_str(), stdout);
      }
    } else {
      if (dirs.empty()) {
        print_usage();
        return 2;
      }
      std::vector<std::unique_ptr<experiment::Experiment>> exps;
      std::vector<const experiment::Experiment*> ptrs;
      for (const auto& dir : dirs) {
        exps.push_back(
            std::make_unique<experiment::Experiment>(experiment::Experiment::load(dir)));
        ptrs.push_back(exps.back().get());
      }
      analyze::Analysis a(ptrs);
      // Offline: no machine to read the DTLB from, so no large-page hint.
      const opt::Planned p = opt::plan_for(a, dopt, /*dtlb_entries=*/0);
      plan = p.plan;
      if (json) {
        std::printf("%s\n", opt::plan_to_json(p.plan).c_str());
      } else {
        if (show_affinity) std::fputs(opt::affinity_to_text(p.affinity).c_str(), stdout);
        std::fputs(opt::plan_to_text(p.plan).c_str(), stdout);
      }
    }
    if (!plan_out.empty()) {
      std::ofstream out(plan_out);
      if (!out) {
        std::fprintf(stderr, "er_opt: cannot write %s\n", plan_out.c_str());
        return 2;
      }
      out << opt::plan_to_text(plan);
      if (!json) std::printf("plan written to %s\n", plan_out.c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "er_opt: %s\n", e.what());
    return 2;
  }
  return 0;
}

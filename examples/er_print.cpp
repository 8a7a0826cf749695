// er_print — command-line analyzer over saved experiment directories,
// mirroring the paper's er_print user model (§2.3): load one or more
// experiments from the same binary, then run report commands.
//
// Usage:
//   er_print <experiment-dir>... [-c command]... [-J] [-O] [--trace <file>]
//
// -J prints the machine-diffable JSON report (analyze::render_json_report)
// and nothing else — the same renderer dsprofd snapshots use, so
// `er_print <dir> -J` diffs byte-for-byte against a streamed session's
// snapshot over the same events (scripts/check.sh relies on this).
//
// -O appends the analyzer's *self-profile* (src/obs/): counters, latency
// histograms, and span totals for er_print's own reduction work over this
// invocation. `-O -J` prints the self-profile as one JSON object instead of
// the report — its "reduce.events.folded" / "serve.events.dropped" counters
// are the cross-check against a dsprofd Stats snapshot for the same events
// (scripts/check.sh smoke gate). --trace writes the span timeline as
// chrome://tracing JSON.
//
// Commands (each also works interactively via -c):
//   overview                       Figure 1 metrics for <Total>
//   functions [metric]             function list (sorted by metric)
//   inclusive [metric]             inclusive function list
//   callers <function>             callers-callees of a function
//   source <function>              annotated source
//   disasm <function>              annotated disassembly
//   pcs [metric [n]]               hottest PCs
//   dataobjects [metric]           data-object view (Figure 6)
//   members <struct>               member expansion (Figure 7)
//   effectiveness                  backtracking effectiveness
//   segments | pages | lines | instances   address views (§4)
//   metrics                        list available metric names
//
// With no -c arguments, a default report (overview + functions +
// dataobjects) is printed.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/reports.hpp"
#include "obs/obs.hpp"

using namespace dsprof;
using analyze::Analysis;

namespace {

size_t parse_metric(const std::string& word, size_t fallback) {
  if (word.empty()) return fallback;
  return analyze::metric_by_short_name(word);
}

void run_command(const Analysis& a, const std::string& cmdline) {
  std::istringstream is(cmdline);
  std::string cmd, arg1, arg2;
  is >> cmd >> arg1 >> arg2;
  const size_t stall = static_cast<size_t>(machine::HwEvent::EC_stall_cycles);
  try {
    if (cmd == "overview") {
      std::fputs(analyze::render_overview(a).c_str(), stdout);
    } else if (cmd == "functions") {
      std::fputs(analyze::render_function_list(a).c_str(), stdout);
    } else if (cmd == "inclusive") {
      const size_t m = parse_metric(arg1, analyze::kUserCpuMetric);
      for (const auto& f : a.functions_inclusive(m)) {
        std::printf("  %14.0f  %s\n", f.mv[m], f.name.c_str());
      }
    } else if (cmd == "callers") {
      std::fputs(analyze::render_callers_callees(a, arg1).c_str(), stdout);
    } else if (cmd == "source") {
      std::fputs(analyze::render_annotated_source(a, arg1).c_str(), stdout);
    } else if (cmd == "disasm") {
      std::fputs(analyze::render_annotated_disassembly(a, arg1).c_str(), stdout);
    } else if (cmd == "pcs") {
      const size_t m = parse_metric(arg1, stall);
      const size_t n = arg2.empty() ? 20 : static_cast<size_t>(std::stoul(arg2));
      std::fputs(analyze::render_hot_pcs(a, m, n).c_str(), stdout);
    } else if (cmd == "dataobjects") {
      std::fputs(analyze::render_data_objects(a, parse_metric(arg1, stall)).c_str(), stdout);
    } else if (cmd == "members") {
      std::fputs(analyze::render_member_expansion(a, arg1).c_str(), stdout);
    } else if (cmd == "effectiveness") {
      std::fputs(analyze::render_effectiveness(a).c_str(), stdout);
    } else if (cmd == "segments") {
      std::fputs(analyze::render_segments(a).c_str(), stdout);
    } else if (cmd == "pages") {
      std::fputs(analyze::render_pages(a, stall, 10).c_str(), stdout);
    } else if (cmd == "lines") {
      std::fputs(analyze::render_cache_lines(a, stall, 10).c_str(), stdout);
    } else if (cmd == "instances") {
      std::fputs(analyze::render_instances(a, stall, 10).c_str(), stdout);
    } else if (cmd == "metrics") {
      for (size_t m = 0; m < analyze::kNumMetrics; ++m) {
        if (a.present()[m]) {
          std::printf("  %-10s %s\n", analyze::metric_short_name(m).c_str(),
                      analyze::metric_name(m).c_str());
        }
      }
    } else {
      std::printf("unknown command: %s\n", cmd.c_str());
    }
  } catch (const Error& e) {
    std::printf("error: %s\n", e.what());
  }
}

}  // namespace

namespace {

void print_usage() {
  std::puts(
      "usage: er_print <experiment-dir>... [options]\n"
      "options:\n"
      "  -c <command>    run one report command (repeatable; default:\n"
      "                  overview + functions + dataobjects)\n"
      "  -J              print the machine-diffable JSON report and nothing\n"
      "                  else (byte-identical to a dsprofd snapshot)\n"
      "  -O              self-profile report (obs counters/histograms/spans\n"
      "                  of this er_print run); with -J, one JSON object\n"
      "  --trace <file>  write the span timeline as chrome://tracing JSON\n"
      "  --help          print this help and exit\n"
      "run examples/mcf_profile first to produce ./mcf_experiment_{1,2}");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> dirs;
  std::vector<std::string> commands;
  bool json = false;
  bool self_profile = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-c") == 0 && i + 1 < argc) {
      commands.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "-J") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "-O") == 0) {
      self_profile = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      print_usage();
      return 0;
    } else {
      dirs.push_back(argv[i]);
    }
  }
  if (dirs.empty()) {
    print_usage();
    return 2;
  }
  std::vector<std::unique_ptr<experiment::Experiment>> exps;
  std::vector<const experiment::Experiment*> ptrs;
  const bool quiet = json;  // both -J modes print exactly one JSON line
  for (const auto& dir : dirs) {
    try {
      exps.push_back(
          std::make_unique<experiment::Experiment>(experiment::Experiment::load(dir)));
    } catch (const Error& e) {
      std::fprintf(stderr, "er_print: cannot load %s: %s\n", dir.c_str(), e.what());
      return 2;
    }
    if (!quiet) std::printf("loaded %s: %zu events\n", dir.c_str(), exps.back()->events.size());
    ptrs.push_back(exps.back().get());
  }
  Analysis a(ptrs);
  if (self_profile && json) {
    // Self-profile JSON: the obs snapshot of this invocation's analysis
    // work (the reduction ran when `a` was built) — one line, nothing else.
    // "reduce.events.folded" here equals the events_reduced a dsprofd Stats
    // frame reports for the same events (and the drop counters are 0:
    // offline analysis never sheds load).
    std::printf("%s\n", obs::snapshot().to_json().c_str());
  } else if (json) {
    // Exactly the JSON a dsprofd snapshot of the same events returns
    // (zero drops): one line, nothing else on stdout.
    std::printf("%s\n", analyze::render_json_report(a).c_str());
  } else {
    if (commands.empty()) commands = {"overview", "functions", "dataobjects"};
    for (const auto& c : commands) {
      std::printf("\n== %s ==\n", c.c_str());
      run_command(a, c);
    }
    if (self_profile) {
      std::printf("\n== self-profile ==\n%s", obs::snapshot().to_text().c_str());
    }
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    out << obs::chrome_trace_json() << "\n";
    if (!quiet) std::printf("trace written to %s\n", trace_path.c_str());
  }
  return 0;
}

// `collect` with no arguments: list the available hardware counters for
// this machine (paper §2.2.1).
//
// --json prints one machine-readable JSON object per the uniform CLI
// contract: per counter the PIC programmability mask (which of the two
// performance registers can count it), skid bounds, and whether the event
// can join a time-multiplexed counter set (every PIC event can; the clock
// profiler runs on its own register and is never sliced).
#include <cstdio>
#include <cstring>
#include <string>

#include "collect/collector.hpp"
#include "machine/counters.hpp"
#include "support/table.hpp"

using namespace dsprof;

namespace {

void print_usage() {
  std::puts(
      "usage: list_counters [options]\n"
      "options:\n"
      "  --json   print the counter table as one JSON object (name,\n"
      "           description, kind, pic_mask, pics, skid, multiplexable)\n"
      "  --help   print this help and exit");
}

void print_json() {
  std::string s = "{\"num_pics\":" + std::to_string(machine::kNumPics) +
                  ",\"max_counters_per_slice\":" + std::to_string(machine::kNumPics) +
                  ",\"counters\":[";
  for (size_t i = 0; i < machine::kNumHwEvents; ++i) {
    const machine::HwEventInfo& e = machine::hw_event_info(static_cast<machine::HwEvent>(i));
    if (i != 0) s += ",";
    s += "{\"name\":\"" + json_escape(e.name) + "\"";
    s += ",\"description\":\"" + json_escape(e.description) + "\"";
    s += std::string(",\"kind\":\"") + (e.counts_cycles ? "cycles" : "events") + "\"";
    s += ",\"pic_mask\":" + std::to_string(e.pic_mask);
    s += ",\"pics\":[";
    bool first = true;
    for (unsigned pic = 0; pic < machine::kNumPics; ++pic) {
      if ((e.pic_mask >> pic) & 1u) {
        if (!first) s += ",";
        s += std::to_string(pic);
        first = false;
      }
    }
    s += "]";
    s += ",\"skid_min\":" + std::to_string(e.skid_min);
    s += ",\"skid_max\":" + std::to_string(e.skid_max);
    // Every PIC event can join a time-sliced counter set; only the clock
    // profiler (its own register) stays live across every slice.
    s += ",\"multiplexable\":true}";
  }
  s += "]}";
  std::printf("%s\n", s.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "list_counters: unknown option %s\n", argv[i]);
      print_usage();
      return 2;
    }
  }
  if (json) {
    print_json();
    return 0;
  }
  std::fputs(collect::list_counters().c_str(), stdout);
  std::puts("\nMore than 2 counters in one spec are time-multiplexed: the sets");
  std::puts("rotate on a cycle budget and the analyzer renormalizes by live time.");
  std::puts("\nExamples:");
  std::puts("  collect -p on  -h +ecstall,on,+ecrm,on a.out   # stalls + read misses");
  std::puts("  collect -p off -h +ecref,on,+dtlbm,on  a.out   # refs + TLB misses");
  std::puts("  collect -p on  -h cycles,on,ecstall,on,ecrm,on,dtlbm,on a.out  # multiplexed");
  return 0;
}

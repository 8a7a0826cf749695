// --json [path] support shared by every bench/ target.
//
// Uniform contract (scripts/check.sh relies on it): each bench prints its
// human-readable summary on stdout and finishes with exactly one
// machine-readable JSON object on the last line. JsonSink routes that
// object: it always stays the last stdout line, and `--json <path>`
// additionally writes it to <path>; a bare `--json` defaults to
// BENCH_<name>.json in the current directory. The flag is consumed from
// argv so benches with their own flags can parse the rest.
//
// bench/paper is the one bench with several views: each view prints its
// own report followed by its own JSON line, and `--json [dir]` writes
// dir/BENCH_<view>.json per view (one JsonSink per view).
#pragma once

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>

namespace dsprof::bench {

class JsonSink {
 public:
  JsonSink(int& argc, char** argv, const std::string& bench_name) {
    int w = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        path_ = "BENCH_" + bench_name + ".json";
        if (i + 1 < argc && argv[i + 1][0] != '-') path_ = argv[++i];
      } else {
        argv[w++] = argv[i];
      }
    }
    argc = w;
  }

  /// Mirror to <dir>/BENCH_<name>.json; an empty `dir` prints only.
  JsonSink(const std::string& dir, const std::string& bench_name)
      : path_(dir.empty() ? "" : dir + "/BENCH_" + bench_name + ".json") {}

  /// printf-style: format the bench's one JSON object, print it as the
  /// last stdout line, and mirror it to the --json file when requested.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void emit(const char* fmt, ...) const {
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string s(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    if (n > 0) std::vsnprintf(s.data(), s.size() + 1, fmt, ap2);
    va_end(ap2);
    std::printf("%s\n", s.c_str());
    if (!path_.empty()) {
      std::ofstream out(path_);
      out << s << "\n";
    }
  }

 private:
  std::string path_;
};

}  // namespace dsprof::bench

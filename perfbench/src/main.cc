// perfbench — the repo benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir DIR]
//
// Prints progress and every metric by name and unit; the last line of
// standard output is the result JSON (see output.h). perfbench/run.py
// builds this binary and runs it.
#include <cstdio>
#include <iostream>
#include <string>

#include "perfbench/src/benchmark.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      if (i + 1 == argc) return Usage();
      const std::string key = argv[i];
      const std::string value = argv[++i];
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return Usage();
        options.trace = value == "1";
      } else if (key == "--trace-dir") {
        options.trace_dir = value;
      } else {
        return Usage();
      }
    }
  } catch (const std::exception&) {
    return Usage();
  }
  if (options.workload.empty() || options.seconds <= 0) return Usage();
  try {
    return perfbench::RunBenchmark(options, std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

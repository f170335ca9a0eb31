// The benchmark run: one workload, one seed, repeated trials.
//
// A run generates the workload's scenario from the seed, runs it once on the
// simulator outside any timing (the reference checksum), then runs timed
// trials back to back until `seconds` have passed (at least kMinTrials).
// Every trial is checked — checksum equal to the simulator's, sent ==
// received messages, every op executed and sampled — and a failed trial
// counts all of its ops as failed. Each metric is computed per passing
// trial and reported as the median over the least-stolen quarter of them
// (by the hypervisor's steal counter). With `trace` set the run
// adds one traced trial and the layer-cost pass and reports the per-layer
// metrics instead of the end-to-end ones.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run's Chrome trace JSON goes (created if missing).
  std::string trace_dir = ".bench_build/traces";
};

/// Runs the benchmark, printing progress and every metric to `out`, the
/// result JSON last. Returns the process exit code: 0 when a result line
/// was printed, non-zero otherwise.
int RunBenchmark(const RunOptions& options, std::ostream& out);

}  // namespace perfbench

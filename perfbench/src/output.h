// Metric catalogue and the result line.
//
// Every metric the benchmark prints is declared here once, with its unit;
// BENCHMARK.json lists the same names. A run with --trace 0 emits exactly
// the end-to-end metrics, a run with --trace 1 exactly the per-layer ones,
// as the last line of standard output:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The user-visible metrics (gated with bounds in BENCHMARK.json).
const std::vector<MetricDef>& EndToEndMetrics();

/// Single-layer metrics, named after the module they measure.
const std::vector<MetricDef>& PerLayerMetrics();

/// Metric names are made of [A-Za-z0-9_.-] and start with a letter or a
/// digit.
bool ValidMetricName(std::string_view name);

/// Shortest decimal text that parses back to exactly `v` (finite only).
std::string FormatNumber(double v);

/// The result line for `defs`, taking each value from `values` (every def
/// must have a finite value there).
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<MetricDef>& defs,
                       const std::map<std::string, double>& values);

}  // namespace perfbench

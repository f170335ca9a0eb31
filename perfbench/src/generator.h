// Seeded workload generation for the repo benchmark.
//
// Each benchmark workload is one sharing pattern (hotspot, migratory) at a
// fixed size on the sockets mesh. The seed changes
// the access stream without changing its shape: it permutes the initial
// home placement (where the pattern spreads homes) and the order in which
// every turn or round touches the objects, while each worker's op mix and
// op count stay fixed. No delay ops are generated. The program under test
// only ever sees the resulting workload::Scenario.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/scenario.h"

namespace perfbench {

/// One benchmark workload: what to generate.
struct WorkloadSpec {
  std::string name;
  std::string pattern;  // hotspot | migratory
  std::uint32_t nodes = 4;
  std::uint32_t objects = 4;
  std::uint32_t object_bytes = 256;
  std::uint32_t repetitions = 1;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();

/// Looks a workload up by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Generates the scenario for `spec` under `seed` (deterministic: the same
/// spec and seed always give an identical scenario).
hmdsm::workload::Scenario Generate(const WorkloadSpec& spec,
                                   std::uint64_t seed);

}  // namespace perfbench

// The layer-cost pass: isolated public calls of each layer, timed at the
// workloads' payload sizes (256 B objects, 4 KiB objects, 16 dirty bytes).
// Each cost is the median over batches of the mean time per call; the
// allocation counts come from the benchmark's counting operator new.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Runs the pass; keys are per-layer metric names (output.h). `seed` fills
/// the payloads.
std::map<std::string, double> RunLayerCosts(std::uint64_t seed);

}  // namespace perfbench

// Allocation counting for the layer-cost pass: the benchmark replaces the
// global operator new with one that counts calls per thread.
#pragma once

#include <cstdint>

namespace perfbench {

/// operator new calls made by the calling thread so far.
std::uint64_t ThreadAllocations();

}  // namespace perfbench

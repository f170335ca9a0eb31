// Exact order statistics over raw samples, and the latency classes they
// are taken over.
//
// Latency medians are gated and p99s reported, so both come from the raw
// per-op samples, never from the program's power-of-two histograms (whose
// buckets only place a quantile within 2x).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/workload/scenario.h"

namespace perfbench {

/// The nearest-rank q-quantile (0 < q <= 1) of `samples`: the smallest
/// value with at least q * n samples at or below it. Sorts in place. 0 for
/// no samples.
double Quantile(std::vector<double>& samples, double q);

/// The median with the even-count midpoint convention (mean of the two
/// middle values). 0 for no values.
double Median(std::vector<double> values);

/// The trials the host disturbed least, as ascending indices into `steal`
/// (each trial's share of machine CPU time the hypervisor stole): the
/// `share` of trials with the lowest steal, at least `min_count` of them,
/// plus every trial tied with the last one kept. With no steal at all every
/// trial is kept.
std::vector<std::size_t> LeastDisturbed(const std::vector<double>& steal,
                                        double share, std::size_t min_count);

/// Sorts one worker's per-op samples (ns) into access latencies (Read,
/// Write) and sync-point latencies (us). A sync point is a Barrier, or a
/// synchronized block's Acquire and matching Release counted together:
/// per-op, a release is a short message and an acquire a wait, and with
/// one of each per block the median of the op mix would sit in the gap
/// between the two, at the fastest acquires.
void SplitSamples(const std::vector<hmdsm::workload::Op>& program,
                  const std::vector<std::uint32_t>& latency_ns,
                  std::vector<double>& access, std::vector<double>& sync);

}  // namespace perfbench

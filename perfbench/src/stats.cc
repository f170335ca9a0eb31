#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/util/check.h"

namespace perfbench {

namespace wl = hmdsm::workload;

double Quantile(std::vector<double>& samples, double q) {
  HMDSM_CHECK_MSG(q > 0 && q <= 1, "quantile " << q << " out of (0, 1]");
  if (samples.empty()) return 0;
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

std::vector<std::size_t> LeastDisturbed(const std::vector<double>& steal,
                                        double share, std::size_t min_count) {
  HMDSM_CHECK_MSG(share > 0 && share <= 1, "share " << share
                                                    << " out of (0, 1]");
  if (steal.empty()) return {};
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const auto wanted = static_cast<std::size_t>(
      std::ceil(share * static_cast<double>(steal.size()) - 1e-9));
  const std::size_t keep =
      std::min(steal.size(), std::max({wanted, min_count, std::size_t{1}}));
  const double limit = sorted[keep - 1];
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < steal.size(); ++i)
    if (steal[i] <= limit) out.push_back(i);
  return out;
}

void SplitSamples(const std::vector<wl::Op>& program,
                  const std::vector<std::uint32_t>& latency_ns,
                  std::vector<double>& access, std::vector<double>& sync) {
  std::map<std::uint32_t, double> held;  // lock -> its Acquire's latency
  for (std::size_t i = 0; i < program.size(); ++i) {
    const wl::Op& op = program[i];
    const double us = static_cast<double>(latency_ns[i]) / 1e3;
    switch (op.kind) {
      case wl::OpKind::kRead:
      case wl::OpKind::kWrite:
        access.push_back(us);
        break;
      case wl::OpKind::kAcquire:
        held[op.id] = us;
        break;
      case wl::OpKind::kRelease: {
        const auto it = held.find(op.id);
        HMDSM_CHECK_MSG(it != held.end(), "release of lock " << op.id
                                                             << " not held");
        sync.push_back(it->second + us);
        held.erase(it);
        break;
      }
      default:
        sync.push_back(us);
        break;
    }
  }
  HMDSM_CHECK_MSG(held.empty(), "a lock is still held at program end");
}

}  // namespace perfbench

#include "perfbench/src/generator.h"

#include <algorithm>
#include <numeric>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace perfbench {

namespace wl = hmdsm::workload;
using hmdsm::Rng;
using hmdsm::SplitMix64;
using wl::NodeId;
using wl::Op;
using wl::OpKind;

namespace {

// Pattern constants, matching src/workload/patterns.cc so the generated
// streams keep the canonical patterns' shapes.
constexpr int kMigratoryBurst = 3;  // consecutive writes per object per turn

std::vector<std::uint32_t> Permutation(Rng& rng, std::uint32_t n) {
  std::vector<std::uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  for (std::uint32_t i = n; i > 1; --i)
    std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

void LockedWrite(std::vector<Op>& prog, std::uint32_t lock, std::uint32_t obj) {
  prog.push_back({OpKind::kAcquire, lock, 0});
  prog.push_back({OpKind::kWrite, obj, 0});
  prog.push_back({OpKind::kRelease, lock, 0});
}

/// Objects homed at `homes`, one lock per object and one barrier, all
/// managed by rank 0; worker w runs on node w.
wl::Scenario Skeleton(const WorkloadSpec& spec, std::uint64_t seed,
                      const std::vector<NodeId>& homes) {
  wl::Scenario s;
  s.name = spec.name + ",seed=" + std::to_string(seed);
  s.nodes = spec.nodes;
  for (std::uint32_t i = 0; i < spec.objects; ++i)
    s.objects.push_back({spec.object_bytes, homes[i]});
  s.lock_managers.assign(spec.objects, 0);
  s.barrier_managers.assign(1, 0);
  for (std::uint32_t w = 0; w < spec.nodes; ++w)
    s.workers.push_back({w, "w" + std::to_string(w), {}});
  return s;
}

/// Round-robin homes over a seeded relabelling of the nodes.
std::vector<NodeId> SpreadHomes(const WorkloadSpec& spec, Rng& rng) {
  const std::vector<std::uint32_t> relabel = Permutation(rng, spec.nodes);
  std::vector<NodeId> homes;
  for (std::uint32_t i = 0; i < spec.objects; ++i)
    homes.push_back(relabel[i % spec.nodes]);
  return homes;
}

// Every node updates objects homed on rank 0 under one global lock. In
// round r every worker writes the same object: each block of `objects`
// rounds visits every object once, in a seeded order that never repeats an
// object across a block boundary (so no writer gets consecutive writes to
// one object and homes stay put, as in the canonical pattern). A final
// barrier and one rewrite of every object by worker 0, in a seeded order,
// pin the final contents, whose last writer would otherwise be decided by
// lock-arrival order.
wl::Scenario Hotspot(const WorkloadSpec& spec, std::uint64_t seed, Rng& rng) {
  wl::Scenario s =
      Skeleton(spec, seed, std::vector<NodeId>(spec.objects, 0));
  s.lock_managers.assign(1, 0);
  std::vector<std::uint32_t> rounds;
  while (rounds.size() < spec.repetitions) {
    std::vector<std::uint32_t> block = Permutation(rng, spec.objects);
    if (!rounds.empty() && block.front() == rounds.back() && spec.objects > 1)
      std::swap(block.front(), block[1 + rng.below(spec.objects - 1)]);
    rounds.insert(rounds.end(), block.begin(), block.end());
  }
  for (wl::WorkerSpec& worker : s.workers) {
    for (std::uint32_t r = 0; r < spec.repetitions; ++r)
      LockedWrite(worker.program, 0, rounds[r]);
    worker.program.push_back({OpKind::kBarrier, 0, spec.nodes});
  }
  for (std::uint32_t o : Permutation(rng, spec.objects))
    LockedWrite(s.workers[0].program, 0, o);
  return s;
}

// Homes move every turn: in each round every worker takes one turn (in a
// seeded turn order) writing each object kMigratoryBurst times in a row (in
// a seeded object order); turns are separated by barriers.
wl::Scenario Migratory(const WorkloadSpec& spec, std::uint64_t seed,
                       Rng& rng) {
  wl::Scenario s = Skeleton(spec, seed, SpreadHomes(spec, rng));
  for (std::uint32_t r = 0; r < spec.repetitions; ++r) {
    for (std::uint32_t writer : Permutation(rng, spec.nodes)) {
      std::vector<Op>& prog = s.workers[writer].program;
      for (std::uint32_t o : Permutation(rng, spec.objects))
        for (int b = 0; b < kMigratoryBurst; ++b) LockedWrite(prog, o, o);
      for (wl::WorkerSpec& worker : s.workers)
        worker.program.push_back({OpKind::kBarrier, 0, spec.nodes});
    }
  }
  return s;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads{
      {"hotspot", "hotspot", 4, 4, 256, 3000},
      {"migratory", "migratory", 4, 4, 256, 200},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads())
    if (w.name == name) return &w;
  return nullptr;
}

wl::Scenario Generate(const WorkloadSpec& spec, std::uint64_t seed) {
  HMDSM_CHECK_MSG(spec.nodes >= 2 && spec.objects >= 1 &&
                      spec.repetitions >= 1 && spec.object_bytes >= 8,
                  "bad workload size for " << spec.name);
  Rng rng(SplitMix64(seed).next());
  wl::Scenario s;
  if (spec.pattern == "hotspot") {
    s = Hotspot(spec, seed, rng);
  } else if (spec.pattern == "migratory") {
    s = Migratory(spec, seed, rng);
  } else {
    HMDSM_CHECK_MSG(false, "unknown benchmark pattern " << spec.pattern);
  }
  wl::ValidateScenario(s);
  return s;
}

}  // namespace perfbench

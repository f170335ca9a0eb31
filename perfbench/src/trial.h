// One trial: a fresh cluster running one generated scenario once.
//
// A trial launches the cluster (a forked localhost mesh, one rank per
// process), builds a gos::Vm with
// the default options users run, creates the scenario's objects, starts the
// measured window with ResetMeasurement, and runs one closed-loop worker per
// rank: each worker issues its program's ops in order through
// workload::AgentShim, timing every Execute call with the steady clock. The
// op samples, the worker's process CPU time and peak RSS ride back in the
// worker's PublishResult; the lead gathers them with the run report and the
// data checksum and hands everything to the launching process through a
// shared memory region. Every process of a trial arms a deadline alarm, so
// a hung trial ends as a failed one instead of hanging the benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/generator.h"
#include "perfbench/src/spans.h"
#include "src/stats/msgcat.h"
#include "src/util/serde.h"
#include "src/workload/scenario.h"

namespace perfbench {

/// A histogram summary the program reports (nanoseconds; approximate:
/// power-of-two buckets).
struct ApproxHist {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
};

/// The parts of gos::RunReport the benchmark turns into metrics.
struct ReportData {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t cat_messages[hmdsm::stats::kNumMsgCats] = {};
  std::uint64_t migrations = 0;
  std::uint64_t mig_rejections = 0;
  std::uint64_t redirect_hops = 0;
  std::uint64_t diffs_created = 0;
  std::uint64_t exclusive_home_writes = 0;
  std::uint64_t fault_ins = 0;
  std::uint64_t sent_messages = 0;
  std::uint64_t received_messages = 0;
  std::uint64_t socket_writes = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_delta_hits = 0;
  std::uint64_t wire_delta_misses = 0;
  std::uint64_t wire_delta_bytes_saved = 0;
  std::uint64_t shm_msgs = 0;
  std::uint64_t mailbox_overflow_allocs = 0;
  std::uint64_t rx_buffer_allocs = 0;
  ApproxHist fault_rtt;  // plain fault-in round trip (kObj replies)
  ApproxHist mig_rtt;    // fault-in that migrated the home (kMig replies)
  ApproxHist mailbox_dwell;
  ApproxHist socket_write;
};

/// What one worker measured.
struct WorkerOut {
  std::uint64_t ops = 0;
  std::uint64_t read_checksum = 0;
  std::uint64_t cpu_ns = 0;      // its process's CPU time over the worker
  std::uint64_t maxrss_kb = 0;   // its process's peak RSS at worker end
  std::vector<std::uint32_t> latency_ns;  // one per op, program order
  std::vector<Span> spans;       // traced trials: worker span + op spans
};

/// What the lead process measured (steady-clock ns timestamps).
struct TrialData {
  std::uint64_t t_entry = 0;       // lead process started
  std::uint64_t t_vm_begin = 0;    // gos::Vm construction starts
  std::uint64_t t_vm_started = 0;  // ... and returns
  std::uint64_t t_main_begin = 0;  // the application main starts
  std::uint64_t t_objects = 0;     // objects, locks, barriers created
  std::uint64_t t_reset = 0;       // ResetMeasurement returned
  std::uint64_t t_spawned = 0;     // every worker spawned
  std::uint64_t t_joined = 0;      // every worker joined
  std::uint64_t t_quiesced = 0;
  std::uint64_t t_reported = 0;
  std::uint64_t t_digested = 0;    // checksum computed, main returns
  std::uint64_t t_vm_stopped = 0;  // Vm::Run returned, Vm destroyed
  std::uint64_t checksum = 0;
  std::uint64_t ops_executed = 0;
  std::uint64_t lead_maxrss_kb = 0;
  ReportData report;
  std::vector<WorkerOut> workers;
};

void EncodeWorkerOut(hmdsm::Writer& w, const WorkerOut& o);
WorkerOut DecodeWorkerOut(hmdsm::Reader& r);

/// Outcome of one trial as the launching process sees it.
struct Trial {
  bool ok = false;
  std::string error;  // why the trial failed
  std::uint64_t t_launch = 0;  // before the fork
  std::uint64_t t_reaped = 0;  // every process of the trial reaped
  /// Share of the machine's CPU time the hypervisor stole while the trial
  /// ran (/proc/stat; 0 where the kernel reports none).
  double steal_share = 0;
  TrialData data;
};

/// Runs one trial of `scenario` on a mesh of `spec.nodes` ranks. `traced`
/// records op
/// spans. Never throws for a failing trial: failures come back as !ok.
/// Must be called while the calling process is single-threaded.
Trial RunTrial(const WorkloadSpec& spec, const hmdsm::workload::Scenario& scenario,
               bool traced, unsigned deadline_s);

/// The run-level spans of a traced trial (launch, setup, window, teardown
/// and the calls under them), followed by every worker's spans.
std::vector<Span> TrialSpans(const Trial& trial);

}  // namespace perfbench

// Benchmark-side spans for the traced run.
//
// A span records one call into a layer of the program, made from the
// benchmark's own code: the launch, Vm construction, object creation, every
// Env op, the joins, Quiesce and Report. Spans live in memory in the
// process that recorded them, travel back with the trial's results, and are
// written out as Chrome trace JSON when the run ends. Timestamps are
// steady-clock nanoseconds, which every process of one machine shares.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/serde.h"

namespace perfbench {

enum class SpanName : std::uint8_t {
  // Run level: the whole run and its three phases.
  kRun,
  kSetup,
  kWindow,
  kTeardown,
  // Children of the phases (the calls they are made of).
  kFork,           // launch until the lead process starts
  kVmStart,        // gos::Vm construction (the mesh handshake on sockets)
  kCreateObjects,  // object, lock and barrier creation
  kReset,          // Vm::ResetMeasurement
  kSpawn,          // Vm::Spawn of every worker
  kJoin,           // Vm::Join of every worker
  kQuiesce,        // Vm::Quiesce
  kReport,         // Vm::Report (the cluster stats gather on sockets)
  kDigest,         // final-contents read and checksum
  kVmStop,         // Vm::Run return and Vm destruction
  kReap,           // lead process exit until the launcher has reaped all
  // Worker level: one worker's program and its ops.
  kWorker,
  kRead,
  kWrite,
  kAcquire,
  kRelease,
  kBarrier,
  kCount,
};

std::string_view SpanNameOf(SpanName name);

/// Trace id of run-level spans (workers use their index).
constexpr std::uint32_t kRunTrace = 0xFFFFFFFFu;

struct Span {
  SpanName name = SpanName::kRun;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Index of the parent span in the same list; -1 for a root.
  std::int32_t parent = -1;
  std::uint32_t trace = kRunTrace;
  /// Rank of the process that recorded the span (Chrome "pid").
  std::uint32_t rank = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Steady-clock nanoseconds.
std::uint64_t NowNs();

void EncodeSpans(hmdsm::Writer& w, const std::vector<Span>& spans);
std::vector<Span> DecodeSpans(hmdsm::Reader& r);

/// Appends `from` to `to`, shifting parent indices past `to`'s spans.
void AppendSpans(std::vector<Span>& to, const std::vector<Span>& from);

/// Writes Chrome trace-event JSON ("X" events, microseconds since
/// `origin_ns`); pid is the rank, tid the trace id.
void WriteChromeTrace(std::ostream& os, const std::vector<Span>& spans,
                      std::uint64_t origin_ns);

/// A span's duration minus the time its direct children cover.
std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans);

/// The reconciliation of a traced run.
struct Reconciliation {
  /// Every worker's op spans lie inside its worker span and do not
  /// overlap, so op time plus the gaps between ops is the worker's span.
  bool workers_ok = false;
  /// Setup, window and teardown tile the run span, and the calls under
  /// each phase leave at most `tolerance` of the run unaccounted.
  bool phases_ok = false;
  double worker_op_share = 0;    // op time / worker span time
  double unaccounted_share = 0;  // phase time no child covers / run time
  double phase_gap_share = 0;    // run time the three phases miss
  std::string detail;            // first failure, empty when ok
  bool ok() const { return workers_ok && phases_ok; }
};

Reconciliation Reconcile(const std::vector<Span>& spans, double tolerance);

}  // namespace perfbench

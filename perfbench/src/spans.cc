#include "perfbench/src/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>

#include "src/util/check.h"

namespace perfbench {

std::string_view SpanNameOf(SpanName name) {
  switch (name) {
    case SpanName::kRun: return "run";
    case SpanName::kSetup: return "setup";
    case SpanName::kWindow: return "window";
    case SpanName::kTeardown: return "teardown";
    case SpanName::kFork: return "launch.fork";
    case SpanName::kVmStart: return "gos.vm_start";
    case SpanName::kCreateObjects: return "gos.create_objects";
    case SpanName::kReset: return "gos.reset_measurement";
    case SpanName::kSpawn: return "gos.spawn";
    case SpanName::kJoin: return "gos.join";
    case SpanName::kQuiesce: return "gos.quiesce";
    case SpanName::kReport: return "gos.report";
    case SpanName::kDigest: return "gos.digest";
    case SpanName::kVmStop: return "gos.vm_stop";
    case SpanName::kReap: return "launch.reap";
    case SpanName::kWorker: return "worker";
    case SpanName::kRead: return "gos.read";
    case SpanName::kWrite: return "gos.write";
    case SpanName::kAcquire: return "gos.acquire";
    case SpanName::kRelease: return "gos.release";
    case SpanName::kBarrier: return "gos.barrier";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void EncodeSpans(hmdsm::Writer& w, const std::vector<Span>& spans) {
  w.u32(static_cast<std::uint32_t>(spans.size()));
  for (const Span& s : spans) {
    w.u8(static_cast<std::uint8_t>(s.name));
    w.u64(s.start_ns);
    w.u64(s.end_ns);
    w.u32(static_cast<std::uint32_t>(s.parent));
    w.u32(s.trace);
    w.u32(s.rank);
  }
}

std::vector<Span> DecodeSpans(hmdsm::Reader& r) {
  const std::uint32_t n = r.u32();
  HMDSM_CHECK_MSG(n <= r.remaining() / 29, "span count " << n << " too big");
  std::vector<Span> spans(n);
  for (Span& s : spans) {
    const std::uint8_t name = r.u8();
    HMDSM_CHECK_MSG(name < static_cast<std::uint8_t>(SpanName::kCount),
                    "bad span name " << int{name});
    s.name = static_cast<SpanName>(name);
    s.start_ns = r.u64();
    s.end_ns = r.u64();
    s.parent = static_cast<std::int32_t>(r.u32());
    s.trace = r.u32();
    s.rank = r.u32();
    HMDSM_CHECK_MSG(s.parent >= -1 && s.parent < static_cast<std::int32_t>(n),
                    "span parent " << s.parent << " out of range");
  }
  return spans;
}

void AppendSpans(std::vector<Span>& to, const std::vector<Span>& from) {
  const auto base = static_cast<std::int32_t>(to.size());
  for (Span s : from) {
    if (s.parent >= 0) s.parent += base;
    to.push_back(s);
  }
}

void WriteChromeTrace(std::ostream& os, const std::vector<Span>& spans,
                      std::uint64_t origin_ns) {
  const auto us = [&](std::uint64_t ns) {
    return (static_cast<double>(ns) - static_cast<double>(origin_ns)) / 1e3;
  };
  const auto tid = [](std::uint32_t trace) {
    return trace == kRunTrace ? 0u : trace + 1;
  };
  char buf[512];
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  std::set<std::pair<std::uint32_t, std::uint32_t>> threads;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    threads.insert({s.rank, s.trace});
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  first ? "" : ",\n", std::string(SpanNameOf(s.name)).c_str(),
                  us(s.start_ns), static_cast<double>(s.duration_ns()) / 1e3,
                  s.rank, tid(s.trace), i, s.parent);
    os << buf;
    first = false;
  }
  for (const auto& [rank, trace] : threads) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s%s\"}}",
                  first ? "" : ",\n", rank, tid(trace),
                  trace == kRunTrace ? "run" : "worker ",
                  trace == kRunTrace ? "" : std::to_string(trace).c_str());
    os << buf;
    first = false;
  }
  os << "]}\n";
}

std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> covered(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.duration_ns();
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].duration_ns() - std::min(covered[i], spans[i].duration_ns());
  return self;
}

Reconciliation Reconcile(const std::vector<Span>& spans, double tolerance) {
  Reconciliation rec;
  const auto fail = [&](const std::string& why) {
    if (rec.detail.empty()) rec.detail = why;
  };
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  const std::vector<std::uint64_t> self = SelfTimes(spans);

  // Workers: op spans nested in the worker span and disjoint, so op time
  // plus the gaps between ops adds up to the worker span exactly.
  rec.workers_ok = true;
  std::uint64_t worker_ns = 0, op_ns = 0;
  std::size_t workers = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != SpanName::kWorker) continue;
    ++workers;
    const Span& w = spans[i];
    std::vector<std::size_t> ops = children[i];
    std::sort(ops.begin(), ops.end(), [&](std::size_t a, std::size_t b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
    std::uint64_t cursor = w.start_ns;
    for (std::size_t o : ops) {
      if (spans[o].start_ns < cursor || spans[o].end_ns > w.end_ns ||
          spans[o].end_ns < spans[o].start_ns) {
        rec.workers_ok = false;
        fail("worker " + std::to_string(w.trace) +
             ": op spans overlap or leave the worker span");
        break;
      }
      cursor = spans[o].end_ns;
      op_ns += spans[o].duration_ns();
    }
    worker_ns += w.duration_ns();
  }
  if (workers == 0) {
    rec.workers_ok = false;
    fail("no worker spans");
  }
  rec.worker_op_share =
      worker_ns > 0 ? static_cast<double>(op_ns) / static_cast<double>(worker_ns)
                    : 0;

  // Phases: setup, window and teardown tile the run; what no call under a
  // phase covers is unaccounted time.
  const auto run_it = std::find_if(spans.begin(), spans.end(), [](const Span& s) {
    return s.name == SpanName::kRun;
  });
  if (run_it == spans.end() || run_it->duration_ns() == 0) {
    fail("no run span");
    return rec;
  }
  const auto run = static_cast<std::size_t>(run_it - spans.begin());
  const double run_ns = static_cast<double>(spans[run].duration_ns());
  std::uint64_t unaccounted_ns = 0;
  std::uint64_t cursor = spans[run].start_ns;
  std::uint64_t gap_ns = 0;
  std::vector<std::size_t> phases = children[run];
  std::sort(phases.begin(), phases.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].start_ns < spans[b].start_ns;
  });
  for (std::size_t p : phases) {
    const Span& ph = spans[p];
    gap_ns += ph.start_ns > cursor ? ph.start_ns - cursor : cursor - ph.start_ns;
    cursor = ph.end_ns;
    unaccounted_ns += self[p];
  }
  gap_ns += spans[run].end_ns > cursor ? spans[run].end_ns - cursor
                                       : cursor - spans[run].end_ns;
  rec.phase_gap_share = static_cast<double>(gap_ns) / run_ns;
  rec.unaccounted_share = static_cast<double>(unaccounted_ns) / run_ns;
  rec.phases_ok = phases.size() == 3 && rec.phase_gap_share <= tolerance &&
                  rec.unaccounted_share <= tolerance;
  if (phases.size() != 3) fail("run span needs setup, window and teardown");
  if (rec.phase_gap_share > tolerance)
    fail("phases miss " + std::to_string(rec.phase_gap_share * 100) +
         "% of the run");
  if (rec.unaccounted_share > tolerance)
    fail("calls under the phases leave " +
         std::to_string(rec.unaccounted_share * 100) + "% unaccounted");
  return rec;
}

}  // namespace perfbench

#include "perfbench/src/trial.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <limits>

#include "src/gos/vm.h"
#include "src/netio/launcher.h"
#include "src/util/bytes.h"
#include "src/util/check.h"
#include "src/util/fnv.h"
#include "src/workload/recorder.h"

namespace perfbench {

namespace gos = hmdsm::gos;
namespace wl = hmdsm::workload;
using hmdsm::Bytes;
using hmdsm::ByteSpan;
using hmdsm::Reader;
using hmdsm::Writer;

namespace {

std::uint64_t ProcessCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t MaxRssKb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

/// Machine-wide CPU time in clock ticks: all of it, and the part the
/// hypervisor stole (the 8th field of /proc/stat's "cpu" line).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// A MAP_SHARED anonymous region created before the fork: the lead copies
/// its encoded TrialData in, the launching process reads it after reaping.
/// (A pipe would deadlock once the data outgrows the pipe buffer, because
/// the launcher only drains after every process has exited.)
class SharedRegion {
 public:
  static constexpr std::size_t kBytes = 256u << 20;  // reserved, not committed

  SharedRegion() {
    void* p = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    HMDSM_CHECK_MSG(p != MAP_FAILED, "mmap of the result region failed");
    base_ = static_cast<unsigned char*>(p);
    std::memset(base_, 0, sizeof(std::uint64_t));
  }
  ~SharedRegion() { ::munmap(base_, kBytes); }
  SharedRegion(const SharedRegion&) = delete;
  SharedRegion& operator=(const SharedRegion&) = delete;

  /// Child side. False when the payload does not fit.
  bool Put(const Bytes& payload) {
    const std::uint64_t n = payload.size();
    if (n > kBytes - sizeof n) return false;
    std::memcpy(base_ + sizeof n, payload.data(), payload.size());
    std::memcpy(base_, &n, sizeof n);
    return true;
  }

  /// Launcher side, after every writer has exited.
  Bytes Take() const {
    std::uint64_t n = 0;
    std::memcpy(&n, base_, sizeof n);
    if (n == 0 || n > kBytes - sizeof n) return {};
    return Bytes(base_ + sizeof n, base_ + sizeof n + n);
  }

 private:
  unsigned char* base_ = nullptr;
};

SpanName OpSpanName(wl::OpKind kind) {
  switch (kind) {
    case wl::OpKind::kRead: return SpanName::kRead;
    case wl::OpKind::kWrite: return SpanName::kWrite;
    case wl::OpKind::kAcquire: return SpanName::kAcquire;
    case wl::OpKind::kRelease: return SpanName::kRelease;
    case wl::OpKind::kBarrier: return SpanName::kBarrier;
    default: break;
  }
  HMDSM_CHECK_MSG(false, "the benchmark generates no "
                             << wl::OpKindName(kind) << " ops");
  return SpanName::kCount;
}

ApproxHist Approx(const gos::HistSummary& h) {
  return {h.count, h.p50, h.p99};
}

ReportData FromReport(const gos::RunReport& r) {
  ReportData d;
  d.messages = r.messages;
  d.bytes = r.bytes;
  for (std::size_t c = 0; c < hmdsm::stats::kNumMsgCats; ++c)
    d.cat_messages[c] = r.cat[c].messages;
  d.migrations = r.migrations;
  d.mig_rejections = r.mig_rejections;
  d.redirect_hops = r.redirect_hops;
  d.diffs_created = r.diffs_created;
  d.exclusive_home_writes = r.exclusive_home_writes;
  d.fault_ins = r.fault_ins;
  d.sent_messages = r.sent_messages;
  d.received_messages = r.received_messages;
  d.socket_writes = r.socket_writes;
  d.wire_frames = r.wire_frames;
  d.wire_delta_hits = r.wire_delta_hits;
  d.wire_delta_misses = r.wire_delta_misses;
  d.wire_delta_bytes_saved = r.wire_delta_bytes_saved;
  d.shm_msgs = r.shm_msgs;
  d.mailbox_overflow_allocs = r.mailbox_overflow_allocs;
  d.rx_buffer_allocs = r.rx_buffer_allocs;
  d.fault_rtt =
      Approx(r.rtt[static_cast<std::size_t>(hmdsm::stats::MsgCat::kObj)]);
  d.mig_rtt =
      Approx(r.rtt[static_cast<std::size_t>(hmdsm::stats::MsgCat::kMig)]);
  d.mailbox_dwell = Approx(r.mailbox_dwell);
  d.socket_write = Approx(r.socket_write_ns);
  return d;
}

void EncodeHist(Writer& w, const ApproxHist& h) {
  w.u64(h.count);
  w.u64(h.p50);
  w.u64(h.p99);
}

ApproxHist DecodeHist(Reader& r) {
  ApproxHist h;
  h.count = r.u64();
  h.p50 = r.u64();
  h.p99 = r.u64();
  return h;
}

void EncodeReport(Writer& w, const ReportData& d) {
  w.u64(d.messages);
  w.u64(d.bytes);
  for (std::uint64_t m : d.cat_messages) w.u64(m);
  for (std::uint64_t v :
       {d.migrations, d.mig_rejections, d.redirect_hops, d.diffs_created,
        d.exclusive_home_writes, d.fault_ins, d.sent_messages,
        d.received_messages, d.socket_writes, d.wire_frames,
        d.wire_delta_hits, d.wire_delta_misses, d.wire_delta_bytes_saved,
        d.shm_msgs, d.mailbox_overflow_allocs, d.rx_buffer_allocs})
    w.u64(v);
  for (const ApproxHist* h :
       {&d.fault_rtt, &d.mig_rtt, &d.mailbox_dwell, &d.socket_write})
    EncodeHist(w, *h);
}

ReportData DecodeReport(Reader& r) {
  ReportData d;
  d.messages = r.u64();
  d.bytes = r.u64();
  for (std::uint64_t& m : d.cat_messages) m = r.u64();
  for (std::uint64_t* v :
       {&d.migrations, &d.mig_rejections, &d.redirect_hops, &d.diffs_created,
        &d.exclusive_home_writes, &d.fault_ins, &d.sent_messages,
        &d.received_messages, &d.socket_writes, &d.wire_frames,
        &d.wire_delta_hits, &d.wire_delta_misses, &d.wire_delta_bytes_saved,
        &d.shm_msgs, &d.mailbox_overflow_allocs, &d.rx_buffer_allocs})
    *v = r.u64();
  for (ApproxHist* h :
       {&d.fault_rtt, &d.mig_rtt, &d.mailbox_dwell, &d.socket_write})
    *h = DecodeHist(r);
  return d;
}

void EncodeTrialData(Writer& w, const TrialData& d) {
  for (std::uint64_t v :
       {d.t_entry, d.t_vm_begin, d.t_vm_started, d.t_main_begin, d.t_objects,
        d.t_reset, d.t_spawned, d.t_joined, d.t_quiesced, d.t_reported,
        d.t_digested, d.t_vm_stopped, d.checksum, d.ops_executed,
        d.lead_maxrss_kb})
    w.u64(v);
  EncodeReport(w, d.report);
  w.u32(static_cast<std::uint32_t>(d.workers.size()));
  for (const WorkerOut& o : d.workers) EncodeWorkerOut(w, o);
}

TrialData DecodeTrialData(Reader& r) {
  TrialData d;
  for (std::uint64_t* v :
       {&d.t_entry, &d.t_vm_begin, &d.t_vm_started, &d.t_main_begin,
        &d.t_objects, &d.t_reset, &d.t_spawned, &d.t_joined, &d.t_quiesced,
        &d.t_reported, &d.t_digested, &d.t_vm_stopped, &d.checksum,
        &d.ops_executed, &d.lead_maxrss_kb})
    *v = r.u64();
  d.report = DecodeReport(r);
  const std::uint32_t n = r.u32();
  HMDSM_CHECK_MSG(n <= 0x10000, "worker count " << n << " too big");
  for (std::uint32_t i = 0; i < n; ++i) d.workers.push_back(DecodeWorkerOut(r));
  HMDSM_CHECK_MSG(r.done(), "trailing bytes after the trial data");
  return d;
}

/// One worker's closed loop: every op of its program in order, each timed
/// around AgentShim::Execute.
WorkerOut RunWorker(gos::Env& env, const wl::Bindings& bindings,
                    const wl::Scenario& scenario, std::uint32_t w,
                    bool traced) {
  wl::AgentShim shim(env, bindings, w, /*recorder=*/nullptr);
  const std::vector<wl::Op>& program = scenario.workers[w].program;
  WorkerOut out;
  out.latency_ns.reserve(program.size());
  if (traced) {
    out.spans.reserve(program.size() + 1);
    out.spans.push_back({SpanName::kWorker, 0, 0, -1, w, env.node()});
  }
  const std::uint64_t cpu0 = ProcessCpuNs();
  const std::uint64_t w0 = NowNs();
  for (const wl::Op& op : program) {
    const std::uint64_t t0 = NowNs();
    shim.Execute(op);
    const std::uint64_t t1 = NowNs();
    out.latency_ns.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(
        t1 - t0, std::numeric_limits<std::uint32_t>::max())));
    if (traced)
      out.spans.push_back({OpSpanName(op.kind), t0, t1, 0, w, env.node()});
  }
  if (traced) {
    out.spans[0].start_ns = w0;
    out.spans[0].end_ns = NowNs();
  }
  out.cpu_ns = ProcessCpuNs() - cpu0;
  out.maxrss_kb = MaxRssKb();
  out.ops = shim.ops_executed();
  out.read_checksum = shim.read_checksum();
  return out;
}

/// Runs the trial body in one process of the cluster (every process runs
/// it; only the lead's TrialData is meaningful). Mirrors
/// workload::RunScenario, so the checksum matches the simulator's.
TrialData RunInProcess(const gos::VmOptions& options,
                       const wl::Scenario& scenario, bool traced,
                       std::uint64_t t_entry) {
  TrialData d;
  d.t_entry = t_entry;
  d.t_vm_begin = NowNs();
  {
    gos::Vm vm(options);
    d.t_vm_started = NowNs();
    vm.Run([&](gos::Env& env) {
      d.t_main_begin = NowNs();
      wl::Bindings bindings;
      for (const wl::ObjectSpec& o : scenario.objects)
        bindings.objects.push_back(
            vm.CreateObject(env, o.home, hmdsm::ZeroBytes(o.bytes)));
      for (wl::NodeId m : scenario.lock_managers)
        bindings.locks.push_back(vm.CreateLock(m));
      for (wl::NodeId m : scenario.barrier_managers)
        bindings.barriers.push_back(vm.CreateBarrier(m));
      d.t_objects = NowNs();

      vm.ResetMeasurement();
      d.t_reset = NowNs();

      std::vector<gos::Thread*> threads;
      for (std::uint32_t w = 0; w < scenario.workers.size(); ++w) {
        threads.push_back(vm.Spawn(
            scenario.workers[w].node,
            [&, w](gos::Env& me) {
              Writer res;
              EncodeWorkerOut(res,
                              RunWorker(me, bindings, scenario, w, traced));
              me.PublishResult(res.take());
            },
            scenario.workers[w].name));
      }
      d.t_spawned = NowNs();
      for (gos::Thread* t : threads) vm.Join(env, t);
      d.t_joined = NowNs();

      vm.Quiesce(env);
      d.t_quiesced = NowNs();
      d.report = FromReport(vm.Report());
      d.t_reported = NowNs();

      if (!vm.reporting()) return;
      // The digest of workload::RunScenario: per-worker read checksums in
      // worker order, then the final contents of every object.
      std::uint64_t digest = hmdsm::kFnvOffsetBasis;
      for (gos::Thread* t : threads) {
        Reader res(t->result());
        WorkerOut out = DecodeWorkerOut(res);
        d.ops_executed += out.ops;
        digest = hmdsm::FnvFold64(digest, out.read_checksum);
        d.workers.push_back(std::move(out));
      }
      for (gos::ObjectId obj : bindings.objects)
        env.Read(obj, [&](ByteSpan bytes) {
          for (hmdsm::Byte b : bytes) digest = hmdsm::FnvFold(digest, b);
        });
      d.checksum = digest;
      d.t_digested = NowNs();
    });
  }
  d.t_vm_stopped = NowNs();
  d.lead_maxrss_kb = MaxRssKb();
  return d;
}

/// The body every trial process runs; 0 on success.
int ProcessBody(const gos::VmOptions& options, const wl::Scenario& scenario,
                bool traced, bool lead, unsigned deadline_s,
                SharedRegion& region) {
  const std::uint64_t t_entry = NowNs();
  ::alarm(deadline_s);  // SIGALRM's default action ends a hung trial
  try {
    const TrialData d = RunInProcess(options, scenario, traced, t_entry);
    if (!lead) return 0;
    Writer w;
    EncodeTrialData(w, d);
    return region.Put(w.take()) ? 0 : 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench trial process: %s\n", e.what());
    return 1;
  }
}

std::string StatusText(int status) {
  if (status > 128) return "a process was killed by signal " +
                           std::to_string(status - 128);
  return "a process exited with status " + std::to_string(status);
}

}  // namespace

void EncodeWorkerOut(Writer& w, const WorkerOut& o) {
  w.u64(o.ops);
  w.u64(o.read_checksum);
  w.u64(o.cpu_ns);
  w.u64(o.maxrss_kb);
  w.u32(static_cast<std::uint32_t>(o.latency_ns.size()));
  for (std::uint32_t ns : o.latency_ns) w.u32(ns);
  EncodeSpans(w, o.spans);
}

WorkerOut DecodeWorkerOut(Reader& r) {
  WorkerOut o;
  o.ops = r.u64();
  o.read_checksum = r.u64();
  o.cpu_ns = r.u64();
  o.maxrss_kb = r.u64();
  const std::uint32_t n = r.u32();
  HMDSM_CHECK_MSG(n <= r.remaining() / 4, "sample count " << n << " too big");
  o.latency_ns.resize(n);
  for (std::uint32_t& ns : o.latency_ns) ns = r.u32();
  o.spans = DecodeSpans(r);
  return o;
}

Trial RunTrial(const WorkloadSpec& spec, const wl::Scenario& scenario,
               bool traced, unsigned deadline_s) {
  SharedRegion region;
  Trial trial;
  const CpuTicks ticks0 = ReadCpuTicks();
  trial.t_launch = NowNs();
  const int status = hmdsm::netio::RunLocalMesh(
      spec.nodes, [&](const hmdsm::netio::LocalRank& self) {
        gos::VmOptions options;
        options.nodes = self.peers.size();
        options.backend = gos::Backend::kSockets;
        options.sockets.rank = self.rank;
        options.sockets.peers = self.peers;
        options.sockets.ranks_per_proc = self.ranks_per_proc;
        options.sockets.listen_fd = self.listen_fd;
        return ProcessBody(options, scenario, traced, self.rank == 0,
                           deadline_s, region);
      });
  trial.t_reaped = NowNs();
  const CpuTicks ticks1 = ReadCpuTicks();
  if (ticks1.total > ticks0.total)
    trial.steal_share = static_cast<double>(ticks1.steal - ticks0.steal) /
                        static_cast<double>(ticks1.total - ticks0.total);
  if (status != 0) {
    trial.error = StatusText(status);
    return trial;
  }
  const Bytes blob = region.Take();
  if (blob.empty()) {
    trial.error = "the lead process returned no results";
    return trial;
  }
  try {
    Reader r(blob);
    trial.data = DecodeTrialData(r);
    trial.ok = true;
  } catch (const std::exception& e) {
    trial.error = std::string("undecodable trial results: ") + e.what();
  }
  return trial;
}

std::vector<Span> TrialSpans(const Trial& trial) {
  const TrialData& d = trial.data;
  constexpr std::uint32_t kLauncher = 0xFFFF;  // the launching process
  const std::uint32_t lead = 0;
  std::vector<Span> spans;
  const auto add = [&](SpanName name, std::uint64_t start, std::uint64_t end,
                       std::int32_t parent, std::uint32_t rank) {
    spans.push_back({name, start, std::max(start, end), parent, kRunTrace,
                     rank});
    return static_cast<std::int32_t>(spans.size() - 1);
  };
  const std::int32_t run =
      add(SpanName::kRun, trial.t_launch, trial.t_reaped, -1, kLauncher);
  const std::int32_t setup =
      add(SpanName::kSetup, trial.t_launch, d.t_reset, run, kLauncher);
  const std::int32_t window =
      add(SpanName::kWindow, d.t_reset, d.t_joined, run, lead);
  const std::int32_t teardown =
      add(SpanName::kTeardown, d.t_joined, trial.t_reaped, run, kLauncher);
  add(SpanName::kFork, trial.t_launch, d.t_entry, setup, kLauncher);
  add(SpanName::kVmStart, d.t_vm_begin, d.t_vm_started, setup, lead);
  add(SpanName::kCreateObjects, d.t_main_begin, d.t_objects, setup, lead);
  add(SpanName::kReset, d.t_objects, d.t_reset, setup, lead);
  add(SpanName::kSpawn, d.t_reset, d.t_spawned, window, lead);
  add(SpanName::kJoin, d.t_spawned, d.t_joined, window, lead);
  add(SpanName::kQuiesce, d.t_joined, d.t_quiesced, teardown, lead);
  add(SpanName::kReport, d.t_quiesced, d.t_reported, teardown, lead);
  add(SpanName::kDigest, d.t_reported, d.t_digested, teardown, lead);
  add(SpanName::kVmStop, d.t_digested, d.t_vm_stopped, teardown, lead);
  add(SpanName::kReap, d.t_vm_stopped, trial.t_reaped, teardown, kLauncher);
  for (const WorkerOut& w : d.workers) AppendSpans(spans, w.spans);
  return spans;
}

}  // namespace perfbench

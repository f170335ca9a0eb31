#include "perfbench/src/benchmark.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "perfbench/src/generator.h"
#include "perfbench/src/layer_cost.h"
#include "perfbench/src/output.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trial.h"
#include "src/gos/vm.h"
#include "src/stats/msgcat.h"
#include "src/util/check.h"
#include "src/workload/runner.h"

namespace perfbench {

namespace gos = hmdsm::gos;
namespace wl = hmdsm::workload;
using hmdsm::stats::MsgCat;

namespace {

constexpr int kMinTrials = 3;
constexpr int kMaxTrials = 200;
/// Metrics come from this share of the passing trials, the ones the
/// hypervisor stole least CPU from. A steal tick on the critical path stalls
/// a whole closed-loop chain, so ops/s falls several times faster than steal
/// rises (by ~45% at 10% steal on hotspot), and a busy host would otherwise
/// move every time metric of a run.
constexpr double kSelectShare = 0.25;
/// A trial still running after this many seconds is killed and failed.
constexpr unsigned kTrialDeadlineS = 60;
/// Share of the traced run's wall time the reconciliation may leave
/// unaccounted (and the most the three phases may miss of it).
constexpr double kReconcileTolerance = 0.02;

using Values = std::map<std::string, double>;

double PerOp(std::uint64_t count, std::uint64_t ops) {
  return ops == 0 ? 0 : static_cast<double>(count) / static_cast<double>(ops);
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

double Seconds(std::uint64_t from_ns, std::uint64_t to_ns) {
  return to_ns > from_ns ? static_cast<double>(to_ns - from_ns) / 1e9 : 0;
}

/// Empty when `trial` passes every check, else the first failure.
std::string CheckTrial(const wl::Scenario& scenario,
                       std::uint64_t sim_checksum, const Trial& trial) {
  if (!trial.ok) return trial.error;
  const TrialData& d = trial.data;
  if (d.checksum != sim_checksum) return "checksum differs from the simulator";
  if (d.report.sent_messages != d.report.received_messages)
    return "sent " + std::to_string(d.report.sent_messages) +
           " messages but received " +
           std::to_string(d.report.received_messages);
  if (d.ops_executed != scenario.total_ops())
    return "executed " + std::to_string(d.ops_executed) + " of " +
           std::to_string(scenario.total_ops()) + " ops";
  if (d.workers.size() != scenario.workers.size())
    return "results from " + std::to_string(d.workers.size()) + " of " +
           std::to_string(scenario.workers.size()) + " workers";
  for (std::size_t w = 0; w < d.workers.size(); ++w)
    if (d.workers[w].latency_ns.size() != scenario.workers[w].program.size())
      return "worker " + std::to_string(w) + " sampled " +
             std::to_string(d.workers[w].latency_ns.size()) + " of " +
             std::to_string(scenario.workers[w].program.size()) + " ops";
  return {};
}

/// One passing trial's metrics.
struct TrialMetrics {
  Values e2e;    // end-to-end
  Values layer;  // per-layer, from the run report
  std::size_t access_samples = 0;
  std::size_t sync_samples = 0;
};

TrialMetrics Measure(const WorkloadSpec& spec, const wl::Scenario& scenario,
                     const Trial& trial) {
  const TrialData& d = trial.data;
  const ReportData& r = d.report;
  const std::uint64_t ops = scenario.total_ops();
  TrialMetrics m;

  std::vector<double> access, sync;
  for (std::size_t w = 0; w < d.workers.size(); ++w)
    SplitSamples(scenario.workers[w].program, d.workers[w].latency_ns, access,
                 sync);
  m.access_samples = access.size();
  m.sync_samples = sync.size();

  // One process per rank: sum what each worker's process used.
  std::uint64_t cpu_ns = 0;
  std::uint64_t rss_kb = d.lead_maxrss_kb;
  for (const WorkerOut& w : d.workers) {
    cpu_ns += w.cpu_ns;
    rss_kb = std::max(rss_kb, w.maxrss_kb);
  }

  Values& e = m.e2e;
  e["ops_per_s"] = static_cast<double>(ops) / Seconds(d.t_reset, d.t_joined);
  e["access_p50_us"] = Quantile(access, 0.50);
  e["sync_p50_us"] = Quantile(sync, 0.50);
  e["msgs_per_op"] = PerOp(r.messages, ops);
  e["wire_bytes_per_op"] =
      PerOp(r.bytes - std::min(r.bytes, r.wire_delta_bytes_saved), ops);
  e["cpu_us_per_op"] = static_cast<double>(cpu_ns) / 1e3 / static_cast<double>(ops);
  e["setup_s"] = Seconds(trial.t_launch, d.t_reset);
  e["peak_rss_mib"] = static_cast<double>(rss_kb) / 1024.0;

  const auto cat = [&](MsgCat c) {
    return r.cat_messages[static_cast<std::size_t>(c)];
  };
  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  Values& l = m.layer;
  l["gos.access_p99_us"] = Quantile(access, 0.99);
  l["gos.sync_p99_us"] = Quantile(sync, 0.99);
  l["dsm.fault_ins_per_op"] = PerOp(r.fault_ins, ops);
  l["dsm.fault_rtt_p50_us"] = us(r.fault_rtt.p50);
  l["dsm.fault_rtt_p99_us"] = us(r.fault_rtt.p99);
  l["dsm.mig_rtt_p50_us"] = us(r.mig_rtt.p50);
  l["dsm.redirect_hops_per_op"] = PerOp(r.redirect_hops, ops);
  l["dsm.diffs_per_op"] = PerOp(r.diffs_created, ops);
  l["dsm.exclusive_home_writes_per_op"] = PerOp(r.exclusive_home_writes, ops);
  l["dsm.msgs_obj_per_op"] = PerOp(cat(MsgCat::kObj), ops);
  l["dsm.msgs_sync_per_op"] = PerOp(cat(MsgCat::kSync), ops);
  l["dsm.msgs_mig_per_op"] = PerOp(cat(MsgCat::kMig), ops);
  l["dsm.msgs_diff_per_op"] = PerOp(cat(MsgCat::kDiff), ops);
  l["dsm.msgs_redir_per_op"] = PerOp(cat(MsgCat::kRedir), ops);
  l["core.migrations_per_kop"] = 1000 * PerOp(r.migrations, ops);
  l["core.rejections_per_kop"] = 1000 * PerOp(r.mig_rejections, ops);
  l["core.migration_yield"] =
      Ratio(r.migrations, r.migrations + r.mig_rejections);
  l["netio.frames_per_op"] = PerOp(r.wire_frames + r.shm_msgs, ops);
  l["netio.writes_per_frame"] = Ratio(r.socket_writes, r.wire_frames);
  l["netio.shm_share"] = Ratio(r.shm_msgs, r.wire_frames + r.shm_msgs);
  l["netio.delta_hit_ratio"] =
      Ratio(r.wire_delta_hits, r.wire_delta_hits + r.wire_delta_misses);
  l["netio.delta_saved_bytes_per_op"] = PerOp(r.wire_delta_bytes_saved, ops);
  l["netio.socket_write_p50_us"] = us(r.socket_write.p50);
  l["netio.rx_buffer_allocs"] = static_cast<double>(r.rx_buffer_allocs);
  l["runtime.mailbox_dwell_p50_us"] = us(r.mailbox_dwell.p50);
  l["runtime.mailbox_dwell_p99_us"] = us(r.mailbox_dwell.p99);
  l["runtime.overflow_allocs"] = static_cast<double>(r.mailbox_overflow_allocs);
  l["host.steal_share"] = trial.steal_share;
  return m;
}

/// Per-metric median over trials.
Values Medians(const std::vector<Values>& trials) {
  std::map<std::string, std::vector<double>> columns;
  for (const Values& t : trials)
    for (const auto& [name, v] : t) columns[name].push_back(v);
  Values out;
  for (auto& [name, vs] : columns) out[name] = Median(std::move(vs));
  return out;
}

/// The gos.* and launch.* numbers of a traced trial, from its spans.
Values SpanMetrics(const std::vector<Span>& spans) {
  std::map<SpanName, std::vector<double>> us;
  for (const Span& s : spans)
    us[s.name].push_back(static_cast<double>(s.duration_ns()) / 1e3);
  const auto q = [&](SpanName n, double p) { return Quantile(us[n], p); };
  const auto ms = [&](SpanName n) {
    double total = 0;
    for (double v : us[n]) total += v;
    return total / 1e3;
  };
  Values v;
  v["gos.write_p50_us"] = q(SpanName::kWrite, 0.50);
  v["gos.write_p99_us"] = q(SpanName::kWrite, 0.99);
  v["gos.acquire_p50_us"] = q(SpanName::kAcquire, 0.50);
  v["gos.acquire_p99_us"] = q(SpanName::kAcquire, 0.99);
  v["gos.release_p50_us"] = q(SpanName::kRelease, 0.50);
  v["gos.barrier_p50_us"] = q(SpanName::kBarrier, 0.50);
  v["gos.barrier_p99_us"] = q(SpanName::kBarrier, 0.99);
  v["launch.fork_ms"] = ms(SpanName::kFork);
  v["gos.vm_start_ms"] = ms(SpanName::kVmStart);
  v["gos.create_objects_ms"] = ms(SpanName::kCreateObjects);
  v["gos.quiesce_ms"] = ms(SpanName::kQuiesce);
  v["gos.report_ms"] = ms(SpanName::kReport);
  // Worker self time: the gaps between ops (the benchmark loop itself).
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  std::uint64_t worker_ns = 0, gap_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != SpanName::kWorker) continue;
    worker_ns += spans[i].duration_ns();
    gap_ns += self[i];
  }
  v["gos.worker_gap_share"] = Ratio(gap_ns, worker_ns);
  return v;
}

std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

void PrintMetrics(std::ostream& out, const std::vector<MetricDef>& defs,
                  const Values& values) {
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    out << "  " << def.name << " = "
        << (it == values.end() ? std::string("-") : Fmt(it->second, 4)) << " "
        << def.unit << "\n";
  }
}

}  // namespace

int RunBenchmark(const RunOptions& options, std::ostream& out) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (have:",
                 options.workload.c_str());
    for (const WorkloadSpec& w : Workloads())
      std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const wl::Scenario scenario = Generate(*spec, options.seed);
  const std::uint64_t ops = scenario.total_ops();
  out << "perfbench " << spec->name << ": " << spec->pattern
      << " on the sockets mesh, " << spec->nodes
      << " ranks x 1 closed-loop worker, " << spec->objects << " x "
      << spec->object_bytes << " B objects, reps=" << spec->repetitions
      << ", seed=" << options.seed << ", " << ops << " ops per trial\n";

  // The reference: the same scenario on the simulator, outside any timing.
  gos::VmOptions sim_options;
  sim_options.nodes = spec->nodes;
  const std::uint64_t sim_t0 = NowNs();
  const wl::ScenarioResult sim = wl::RunScenario(sim_options, scenario);
  out << "simulator reference: checksum=" << sim.checksum
      << " ops=" << sim.ops_executed << " (" << Fmt(Seconds(sim_t0, NowNs()), 2)
      << " s)\n";
  if (sim.ops_executed != ops) {
    std::fprintf(stderr, "perfbench: the simulator executed %llu of %llu ops\n",
                 static_cast<unsigned long long>(sim.ops_executed),
                 static_cast<unsigned long long>(ops));
    return 1;
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<TrialMetrics> passing;
  const std::uint64_t start = NowNs();
  for (int i = 0; i < kMaxTrials; ++i) {
    // Stop once the next trial, at the mean trial length so far, would end
    // past the budget.
    const double elapsed = Seconds(start, NowNs());
    if (i >= kMinTrials && elapsed + elapsed / i > options.seconds) break;
    const Trial trial =
        RunTrial(*spec, scenario, /*traced=*/false, kTrialDeadlineS);
    attempted += ops;
    const std::string why = CheckTrial(scenario, sim.checksum, trial);
    if (!why.empty()) {
      failed += ops;
      out << "trial " << i << ": FAILED: " << why << "\n";
      continue;
    }
    passing.push_back(Measure(*spec, scenario, trial));
    const Values& e = passing.back().e2e;
    const Values& l = passing.back().layer;
    out << "trial " << i << ": ok  ops/s=" << Fmt(e.at("ops_per_s"), 1)
        << " access p50/p99=" << Fmt(e.at("access_p50_us"), 1) << "/"
        << Fmt(l.at("gos.access_p99_us"), 1)
        << " us  sync p50/p99=" << Fmt(e.at("sync_p50_us"), 1) << "/"
        << Fmt(l.at("gos.sync_p99_us"), 1) << " us  setup=" << Fmt(e.at("setup_s"))
        << " s  steal=" << Fmt(trial.steal_share * 100, 1) << "%\n";
  }
  if (passing.empty()) {
    std::fprintf(stderr, "perfbench: no trial of %s passed its checks\n",
                 spec->name.c_str());
    return 1;
  }

  std::vector<double> steal;
  for (const TrialMetrics& t : passing)
    steal.push_back(t.layer.at("host.steal_share"));
  const std::vector<std::size_t> kept =
      LeastDisturbed(steal, kSelectShare, kMinTrials);
  std::vector<Values> e2e_trials, layer_trials;
  std::vector<double> access_n, sync_n;
  for (std::size_t i : kept) {
    const TrialMetrics& t = passing[i];
    e2e_trials.push_back(t.e2e);
    layer_trials.push_back(t.layer);
    access_n.push_back(static_cast<double>(t.access_samples));
    sync_n.push_back(static_cast<double>(t.sync_samples));
  }
  Values e2e = Medians(e2e_trials);
  Values layer = Medians(layer_trials);
  e2e["ok_ratio"] = 1.0 - Ratio(failed, attempted);
  out << "medians over the " << kept.size() << " least-stolen of "
      << passing.size() << " passing trials (" << Fmt(Seconds(start, NowNs()), 2)
      << " s); host steal median " << Fmt(Median(steal) * 100, 2)
      << "% over all, " << Fmt(layer.at("host.steal_share") * 100, 2)
      << "% over those kept; latency quantiles are exact, from "
      << Fmt(Median(access_n), 0) << " access and " << Fmt(Median(sync_n), 0)
      << " sync-point samples per trial\n";
  out << "fail_ratio = " << Fmt(Ratio(failed, attempted), 6) << " (" << failed
      << " of " << attempted << " ops in failed trials)\n";
  out << "end-to-end:\n";
  PrintMetrics(out, EndToEndMetrics(), e2e);
  out << "tails (exact, not gated):\n"
      << "  access_p99_us = " << Fmt(layer.at("gos.access_p99_us"), 4) << " us\n"
      << "  sync_p99_us = " << Fmt(layer.at("gos.sync_p99_us"), 4) << " us\n";

  if (!options.trace) {
    out << ResultJson(failed == 0, attempted, failed, EndToEndMetrics(), e2e)
        << "\n";
    return 0;
  }

  // The traced run: one more trial with op spans, separate from the timed
  // ones, then the layer-cost pass.
  bool reconciled = false;
  const Trial traced =
      RunTrial(*spec, scenario, /*traced=*/true, kTrialDeadlineS);
  attempted += ops;
  const std::string why = CheckTrial(scenario, sim.checksum, traced);
  if (!why.empty()) {
    failed += ops;
    out << "traced trial: FAILED: " << why << "\n";
    for (const MetricDef& def : PerLayerMetrics()) layer.emplace(def.name, 0);
  } else {
    const std::vector<Span> spans = TrialSpans(traced);
    for (const auto& [name, v] : SpanMetrics(spans)) layer[name] = v;
    const Reconciliation rec = Reconcile(spans, kReconcileTolerance);
    const double traced_ops_per_s =
        static_cast<double>(ops) / Seconds(traced.data.t_reset, traced.data.t_joined);
    layer["trace.overhead_ratio"] = traced_ops_per_s / e2e.at("ops_per_s");
    layer["trace.reconcile_ok"] = rec.ok() ? 1 : 0;
    layer["trace.unaccounted_share"] = rec.unaccounted_share;

    std::filesystem::create_directories(options.trace_dir);
    const std::string path = options.trace_dir + "/" + spec->name + ".seed" +
                             std::to_string(options.seed) + ".json";
    std::ofstream os(path);
    WriteChromeTrace(os, spans, traced.t_launch);
    out << "traced trial: " << spans.size() << " spans -> " << path << "\n";
    out << "tracing overhead: traced ops/s " << Fmt(traced_ops_per_s, 1)
        << " vs untraced median " << Fmt(e2e.at("ops_per_s"), 1) << " (ratio "
        << Fmt(layer["trace.overhead_ratio"], 4) << ")\n";
    out << "reconciliation (tolerance " << Fmt(kReconcileTolerance * 100, 1)
        << "% of run wall time): " << (rec.ok() ? "ok" : "FAILED: " + rec.detail)
        << "; op spans cover " << Fmt(rec.worker_op_share * 100, 2)
        << "% of worker spans, the rest are gaps; phases miss "
        << Fmt(rec.phase_gap_share * 100, 3) << "%, calls leave "
        << Fmt(rec.unaccounted_share * 100, 3) << "% unaccounted\n";
    const ApproxHist& rtt = traced.data.report.fault_rtt;
    out << "access budget of the traced trial: gos.write_p50_us="
        << Fmt(layer["gos.write_p50_us"], 2)
        << " next to dsm.fault_rtt_p50_us=" << Fmt(static_cast<double>(rtt.p50) / 1e3, 2)
        << " (approximate: power-of-two histogram of " << rtt.count
        << " fault-ins)\n";
    reconciled = rec.ok();
  }
  for (const auto& [name, v] : RunLayerCosts(options.seed)) layer[name] = v;
  out << "per-layer (dsm.*_rtt_*, netio.socket_write_*, runtime.mailbox_dwell_*"
         " are approximate: power-of-two histograms):\n";
  PrintMetrics(out, PerLayerMetrics(), layer);
  out << ResultJson(failed == 0 && reconciled, attempted, failed,
                    PerLayerMetrics(), layer)
      << "\n";
  return 0;
}

}  // namespace perfbench

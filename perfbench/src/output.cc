#include "perfbench/src/output.h"

#include <charconv>
#include <cmath>

#include "src/util/check.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs{
      {"ops_per_s", "1/s"},
      {"access_p50_us", "us"},
      {"sync_p50_us", "us"},
      {"msgs_per_op", "msg/op"},
      {"wire_bytes_per_op", "B/op"},
      {"cpu_us_per_op", "us/op"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"ok_ratio", "ratio"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs{
      // gos: access and sync-point p99 of the timed trials, exact from raw
      // samples; not gated, because a loaded host moves them by several
      // times their median.
      {"gos.access_p99_us", "us"},
      {"gos.sync_p99_us", "us"},
      // gos: traced spans around the Env ops and the Vm calls.
      {"gos.write_p50_us", "us"},
      {"gos.write_p99_us", "us"},
      {"gos.acquire_p50_us", "us"},
      {"gos.acquire_p99_us", "us"},
      {"gos.release_p50_us", "us"},
      {"gos.barrier_p50_us", "us"},
      {"gos.barrier_p99_us", "us"},
      {"gos.worker_gap_share", "ratio"},
      {"launch.fork_ms", "ms"},
      {"gos.vm_start_ms", "ms"},
      {"gos.create_objects_ms", "ms"},
      {"gos.quiesce_ms", "ms"},
      {"gos.report_ms", "ms"},
      // dsm: the run report (histograms approximate, power-of-two buckets).
      {"dsm.fault_ins_per_op", "count/op"},
      {"dsm.fault_rtt_p50_us", "us"},
      {"dsm.fault_rtt_p99_us", "us"},
      {"dsm.mig_rtt_p50_us", "us"},
      {"dsm.redirect_hops_per_op", "count/op"},
      {"dsm.diffs_per_op", "count/op"},
      {"dsm.exclusive_home_writes_per_op", "count/op"},
      {"dsm.msgs_obj_per_op", "msg/op"},
      {"dsm.msgs_sync_per_op", "msg/op"},
      {"dsm.msgs_mig_per_op", "msg/op"},
      {"dsm.msgs_diff_per_op", "msg/op"},
      {"dsm.msgs_redir_per_op", "msg/op"},
      // core: the migration policy.
      {"core.migrations_per_kop", "count/kop"},
      {"core.rejections_per_kop", "count/kop"},
      {"core.migration_yield", "ratio"},
      // netio: the socket transport.
      {"netio.frames_per_op", "count/op"},
      {"netio.writes_per_frame", "ratio"},
      {"netio.shm_share", "ratio"},
      {"netio.delta_hit_ratio", "ratio"},
      {"netio.delta_saved_bytes_per_op", "B/op"},
      {"netio.socket_write_p50_us", "us"},
      {"netio.rx_buffer_allocs", "count"},
      // runtime: mailboxes and dispatchers.
      {"runtime.mailbox_dwell_p50_us", "us"},
      {"runtime.mailbox_dwell_p99_us", "us"},
      {"runtime.overflow_allocs", "count"},
      // Layer-cost pass: isolated public calls at the workloads' sizes.
      {"proto.encode_ns_256b", "ns"},
      {"proto.decode_ns_256b", "ns"},
      {"proto.encode_ns_4k", "ns"},
      {"proto.decode_ns_4k", "ns"},
      {"netio.frame_encode_ns_256b", "ns"},
      {"netio.frame_decode_ns_256b", "ns"},
      {"netio.delta_encode_ns_4k", "ns"},
      {"diff.create_ns_4k", "ns"},
      {"diff.apply_ns_4k", "ns"},
      {"runtime.ring_push_pop_ns", "ns"},
      {"core.should_migrate_ns", "ns"},
      {"netio.encode_allocs_per_frame", "count"},
      {"proto.encode_allocs_per_msg", "count"},
      // The machine: CPU the hypervisor took from the timed trials.
      {"host.steal_share", "ratio"},
      // The traced run itself.
      {"trace.overhead_ratio", "ratio"},
      {"trace.reconcile_ok", "bool"},
      {"trace.unaccounted_share", "ratio"},
  };
  return kDefs;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

std::string FormatNumber(double v) {
  HMDSM_CHECK_MSG(std::isfinite(v), "metric value is not finite");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  HMDSM_CHECK(res.ec == std::errc());
  return std::string(buf, res.ptr);
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<MetricDef>& defs,
                       const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    HMDSM_CHECK_MSG(ValidMetricName(def.name), "bad metric name " << def.name);
    const auto it = values.find(def.name);
    HMDSM_CHECK_MSG(it != values.end(), "metric " << def.name << " not set");
    if (!first) out += ", ";
    first = false;
    out += "\"" + def.name + "\": {\"value\": " + FormatNumber(it->second) +
           ", \"unit\": \"" + def.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

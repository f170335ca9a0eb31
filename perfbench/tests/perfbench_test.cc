// Unit tests of the benchmark's own logic: the seeded generator, exact
// quantiles, metric names, the result JSON and the span reconciliation.
//
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/generator.h"
#include "perfbench/src/output.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trial.h"
#include "src/workload/runner.h"

namespace perfbench {
namespace {

namespace wl = hmdsm::workload;

// ---------------------------------------------------------------------------
// A minimal JSON reader, enough to parse the result line and BENCHMARK.json.
// ---------------------------------------------------------------------------
struct Json {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject } type = kNull;
  bool boolean = false;
  double number = 0;
  std::string text;  // kString; kNumber keeps its source text too
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  const Json& operator[](const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return v;
    ADD_FAILURE() << "no key " << key;
    static const Json kMissing;
    return kMissing;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json Parse() {
    Json v = Value();
    Skip();
    EXPECT_EQ(pos_, s_.size()) << "trailing text";
    return v;
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool Eat(char c) {
    Skip();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  std::string String() {
    EXPECT_TRUE(Eat('"'));
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      out += s_[pos_++];
    }
    ++pos_;
    return out;
  }
  Json Value() {
    Skip();
    Json v;
    if (pos_ >= s_.size()) {
      ADD_FAILURE() << "unexpected end";
      return v;
    }
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.type = Json::kObject;
      if (Eat('}')) return v;
      do {
        Skip();
        std::string key = String();
        EXPECT_TRUE(Eat(':'));
        v.members.emplace_back(key, Value());
      } while (Eat(','));
      EXPECT_TRUE(Eat('}'));
    } else if (c == '[') {
      ++pos_;
      v.type = Json::kArray;
      if (Eat(']')) return v;
      do v.items.push_back(Value());
      while (Eat(','));
      EXPECT_TRUE(Eat(']'));
    } else if (c == '"') {
      v.type = Json::kString;
      v.text = String();
    } else if (s_.compare(pos_, 4, "true") == 0) {
      v.type = Json::kBool;
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.type = Json::kBool;
      pos_ += 5;
    } else if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      const char* begin = s_.c_str() + pos_;
      char* end = nullptr;
      v.type = Json::kNumber;
      v.number = std::strtod(begin, &end);
      EXPECT_NE(end, begin) << "bad number at " << pos_;
      v.text.assign(begin, static_cast<std::size_t>(end - begin));
      pos_ += static_cast<std::size_t>(end - begin);
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Json ParseJson(const std::string& s) { return JsonParser(s).Parse(); }

std::map<wl::OpKind, std::size_t> KindCounts(const wl::WorkerSpec& w) {
  std::map<wl::OpKind, std::size_t> counts;
  for (const wl::Op& op : w.program) ++counts[op.kind];
  return counts;
}

/// A workload shrunk so the simulator runs it in milliseconds.
WorkloadSpec Small(const std::string& name) {
  WorkloadSpec spec = *FindWorkload(name);
  spec.repetitions = spec.pattern == "migratory" ? 3 : 12;
  return spec;
}

// ---------------------------------------------------------------------------
// Generator.
// ---------------------------------------------------------------------------
TEST(Generator, SameSeedGivesIdenticalScenario) {
  for (const WorkloadSpec& spec : Workloads())
    EXPECT_EQ(Generate(spec, 42), Generate(spec, 42)) << spec.name;
}

TEST(Generator, SeedsChangeTheStreamButNotTheOpCounts) {
  for (const WorkloadSpec& spec : Workloads()) {
    const wl::Scenario a = Generate(spec, 1);
    const wl::Scenario b = Generate(spec, 2);
    EXPECT_EQ(a.total_ops(), b.total_ops()) << spec.name;
    ASSERT_EQ(a.workers.size(), b.workers.size());
    bool differs = false;
    for (std::size_t w = 0; w < a.workers.size(); ++w) {
      EXPECT_EQ(KindCounts(a.workers[w]), KindCounts(b.workers[w]))
          << spec.name << " worker " << w;
      differs = differs || a.workers[w].program != b.workers[w].program;
    }
    EXPECT_TRUE(differs) << spec.name << ": seeds 1 and 2 give one stream";
    for (const wl::WorkerSpec& w : a.workers)
      for (const wl::Op& op : w.program)
        EXPECT_NE(op.kind, wl::OpKind::kDelay) << spec.name;
  }
}

TEST(Generator, SpreadHomesArePermutedBySeed) {
  std::set<std::vector<wl::NodeId>> placements;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<wl::NodeId> homes;
    for (const wl::ObjectSpec& o : Generate(*FindWorkload("migratory"), seed).objects)
      homes.push_back(o.home);
    std::set<wl::NodeId> distinct(homes.begin(), homes.end());
    EXPECT_EQ(distinct.size(), 4u);  // still one object per node
    placements.insert(homes);
  }
  EXPECT_GT(placements.size(), 1u);
  for (const wl::ObjectSpec& o : Generate(*FindWorkload("hotspot"), 5).objects)
    EXPECT_EQ(o.home, 0u);  // the hot home stays on rank 0
}

TEST(Generator, SeedChangesTheChecksumOnTheSimulator) {
  // Hotspot's data checksum only sees the order of the final settle pass
  // (24 possibilities for 4 objects), so two seeds may collide; four must
  // not all agree.
  for (const std::string name : {"hotspot", "migratory"}) {
    const WorkloadSpec spec = Small(name);
    hmdsm::gos::VmOptions sim;
    sim.nodes = spec.nodes;
    std::set<std::uint64_t> checksums;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const wl::Scenario scenario = Generate(spec, seed);
      const wl::ScenarioResult r = wl::RunScenario(sim, scenario);
      EXPECT_EQ(r.ops_executed, scenario.total_ops()) << name;
      EXPECT_EQ(r.checksum, wl::RunScenario(sim, scenario).checksum) << name;
      checksums.insert(r.checksum);
    }
    EXPECT_GT(checksums.size(), 1u) << name;
  }
}

TEST(Generator, HotspotRoundsShareOneObjectAndNeverRepeatIt) {
  // Every worker writes the same object in a round and no object is
  // written in two consecutive rounds, so no writer builds up consecutive
  // remote writes and the homes stay on rank 0.
  const WorkloadSpec& spec = *FindWorkload("hotspot");
  const wl::Scenario s = Generate(spec, 3);
  std::vector<std::uint32_t> rounds;
  for (const wl::Op& op : s.workers[1].program)
    if (op.kind == wl::OpKind::kWrite) rounds.push_back(op.id);
  ASSERT_EQ(rounds.size(), spec.repetitions);
  for (const wl::WorkerSpec& w : s.workers) {
    std::size_t r = 0;
    for (const wl::Op& op : w.program) {
      if (op.kind == wl::OpKind::kWrite && r < rounds.size()) {
        EXPECT_EQ(op.id, rounds[r++]) << w.name;
      }
    }
  }
  for (std::size_t r = 1; r < rounds.size(); ++r)
    EXPECT_NE(rounds[r], rounds[r - 1]) << "round " << r;
  std::map<std::uint32_t, std::size_t> per_object;
  for (std::uint32_t o : rounds) ++per_object[o];
  for (const auto& [o, n] : per_object) EXPECT_EQ(n, spec.repetitions / spec.objects);
}

TEST(Generator, UnknownWorkload) { EXPECT_EQ(FindWorkload("nope"), nullptr); }

// ---------------------------------------------------------------------------
// Quantiles.
// ---------------------------------------------------------------------------
TEST(Stats, NearestRankQuantilesOnKnownSamples) {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(Quantile(hundred, 0.50), 50);
  EXPECT_EQ(Quantile(hundred, 0.99), 99);
  EXPECT_EQ(Quantile(hundred, 1.0), 100);
  EXPECT_EQ(Quantile(hundred, 0.01), 1);

  std::vector<double> thousand;
  for (int i = 0; i < 1000; ++i) thousand.push_back((i * 7919) % 1000);
  EXPECT_EQ(Quantile(thousand, 0.50), 499);
  EXPECT_EQ(Quantile(thousand, 0.99), 989);

  std::vector<double> one{5};
  EXPECT_EQ(Quantile(one, 0.99), 5);
  std::vector<double> three{3, 1, 2};
  EXPECT_EQ(Quantile(three, 0.5), 2);
  std::vector<double> none;
  EXPECT_EQ(Quantile(none, 0.5), 0);
}

TEST(Stats, MedianUsesTheMidpointForEvenCounts) {
  EXPECT_EQ(Median({4, 1, 3}), 3);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(Stats, LeastDisturbedKeepsTheLowestStealAndItsTies) {
  const std::vector<double> steal{0.05, 0.0, 0.02, 0.01, 0.0, 0.09, 0.01, 0.03};
  // A quarter of 8 is 2, the minimum 3 wins: 0.0, 0.0, 0.01 and its tie.
  EXPECT_EQ(LeastDisturbed(steal, 0.25, 3),
            (std::vector<std::size_t>{1, 3, 4, 6}));
  EXPECT_EQ(LeastDisturbed(steal, 0.5, 1),
            (std::vector<std::size_t>{1, 3, 4, 6}));
  EXPECT_EQ(LeastDisturbed(steal, 0.1, 1), (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(LeastDisturbed(steal, 1.0, 1).size(), steal.size());
  EXPECT_EQ(LeastDisturbed(std::vector<double>(5, 0.0), 0.25, 3).size(), 5u);
  EXPECT_EQ(LeastDisturbed({0.2, 0.1}, 0.25, 3),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(LeastDisturbed({}, 0.25, 3).empty());
}

TEST(Stats, SyncPointsPairEachAcquireWithItsRelease) {
  using K = wl::OpKind;
  const std::vector<wl::Op> program{
      {K::kAcquire, 0, 0}, {K::kWrite, 1, 0},   {K::kRelease, 0, 0},
      {K::kRead, 2, 0},    {K::kBarrier, 0, 4}, {K::kAcquire, 3, 0},
      {K::kAcquire, 5, 0}, {K::kRelease, 3, 0}, {K::kRelease, 5, 0}};
  const std::vector<std::uint32_t> ns{100000, 2000, 5000, 300,  70000,
                                      1000,   4000, 9000, 11000};
  std::vector<double> access, sync;
  SplitSamples(program, ns, access, sync);
  EXPECT_EQ(access, (std::vector<double>{2, 0.3}));
  EXPECT_EQ(sync, (std::vector<double>{105, 70, 10, 15}));

  const std::vector<wl::Op> unmatched{{K::kRelease, 0, 0}};
  EXPECT_THROW(SplitSamples(unmatched, {1}, access, sync), hmdsm::CheckError);
}

// ---------------------------------------------------------------------------
// Metric names and the result JSON.
// ---------------------------------------------------------------------------
TEST(Output, MetricNamesAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()})
    for (const MetricDef& def : *defs) {
      EXPECT_TRUE(ValidMetricName(def.name)) << def.name;
      EXPECT_TRUE(seen.insert(def.name).second) << def.name << " repeats";
      EXPECT_FALSE(def.unit.empty()) << def.name;
    }
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName("a/b"));
  EXPECT_TRUE(ValidMetricName("gos.read_p50_us"));
}

TEST(Output, CatalogueMatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const Json spec = ParseJson(ss.str());
  for (const auto& [key, defs] :
       {std::pair{"end_to_end", &EndToEndMetrics()},
        std::pair{"per_layer", &PerLayerMetrics()}}) {
    std::map<std::string, std::string> listed, ours;
    for (const Json& m : spec[key].items)
      listed[m["name"].text] = m["unit"].text;
    for (const MetricDef& def : *defs) ours[def.name] = def.unit;
    EXPECT_EQ(listed, ours) << key;
  }
  std::vector<std::string> workloads;
  for (const Json& w : spec["workloads"].items) workloads.push_back(w["name"].text);
  std::vector<std::string> ours;
  for (const WorkloadSpec& w : Workloads()) ours.push_back(w.name);
  EXPECT_EQ(workloads, ours);
}

TEST(Output, ResultJsonParsesBackToThePrintedValues) {
  const std::vector<MetricDef> defs{
      {"latency_ms", "ms"}, {"tiny", "s"}, {"big", "1/s"}, {"sum", "x"}};
  const std::map<std::string, double> values{{"latency_ms", 1.2034},
                                             {"tiny", 2.5e-9},
                                             {"big", 123456789.125},
                                             {"sum", 0.1 + 0.2}};
  const std::string line = ResultJson(true, 1000, 3, defs, values);
  const Json j = ParseJson(line);
  ASSERT_EQ(j.type, Json::kObject);
  ASSERT_EQ(j.members.size(), 4u);
  EXPECT_TRUE(j["correct"].boolean);
  EXPECT_EQ(j["attempted"].number, 1000);
  EXPECT_EQ(j["attempted"].text, "1000");
  EXPECT_EQ(j["failed"].text, "3");
  const Json& metrics = j["metrics"];
  ASSERT_EQ(metrics.members.size(), defs.size());
  for (const MetricDef& def : defs) {
    EXPECT_EQ(metrics[def.name]["value"].number, values.at(def.name)) << def.name;
    EXPECT_EQ(metrics[def.name]["unit"].text, def.unit);
  }
  EXPECT_EQ(FormatNumber(0.1 + 0.2), "0.30000000000000004");
  EXPECT_THROW(ResultJson(true, 1, 0, defs, {{"latency_ms", 1}}),
               hmdsm::CheckError);
}

// ---------------------------------------------------------------------------
// Spans and reconciliation.
// ---------------------------------------------------------------------------
std::vector<Span> GoodRun() {
  std::vector<Span> s;
  s.push_back({SpanName::kRun, 0, 1000, -1, kRunTrace, 9});
  s.push_back({SpanName::kSetup, 0, 100, 0, kRunTrace, 9});
  s.push_back({SpanName::kWindow, 100, 900, 0, kRunTrace, 0});
  s.push_back({SpanName::kTeardown, 900, 1000, 0, kRunTrace, 9});
  s.push_back({SpanName::kFork, 0, 40, 1, kRunTrace, 9});
  s.push_back({SpanName::kVmStart, 40, 100, 1, kRunTrace, 0});
  s.push_back({SpanName::kJoin, 100, 900, 2, kRunTrace, 0});
  s.push_back({SpanName::kReport, 900, 995, 3, kRunTrace, 0});
  s.push_back({SpanName::kWorker, 110, 890, -1, 0, 0});
  s.push_back({SpanName::kWrite, 120, 400, 8, 0, 0});
  s.push_back({SpanName::kBarrier, 400, 880, 8, 0, 0});
  return s;
}

TEST(Spans, ReconcileAcceptsACoveredRun) {
  const Reconciliation rec = Reconcile(GoodRun(), 0.01);
  EXPECT_TRUE(rec.ok()) << rec.detail;
  EXPECT_DOUBLE_EQ(rec.unaccounted_share, 0.005);
  EXPECT_DOUBLE_EQ(rec.worker_op_share, 760.0 / 780.0);
  EXPECT_DOUBLE_EQ(rec.phase_gap_share, 0);
}

TEST(Spans, ReconcileRejectsOverlapsAndUncoveredTime) {
  std::vector<Span> overlap = GoodRun();
  overlap.back().start_ns = 350;  // starts inside the write
  EXPECT_FALSE(Reconcile(overlap, 0.01).workers_ok);

  std::vector<Span> outside = GoodRun();
  outside.back().end_ns = 895;  // ends after the worker span
  EXPECT_FALSE(Reconcile(outside, 0.01).workers_ok);

  const Reconciliation loose = Reconcile(GoodRun(), 0.001);  // 0.5% > 0.1%
  EXPECT_TRUE(loose.workers_ok);
  EXPECT_FALSE(loose.phases_ok);
  EXPECT_FALSE(loose.detail.empty());
}

TEST(Spans, EncodeDecodeAndSelfTimes) {
  const std::vector<Span> spans = GoodRun();
  hmdsm::Writer w;
  EncodeSpans(w, spans);
  const hmdsm::Bytes bytes = w.take();
  hmdsm::Reader r(bytes);
  const std::vector<Span> back = DecodeSpans(r);
  ASSERT_EQ(back.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(back[i].name, spans[i].name);
    EXPECT_EQ(back[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(back[i].end_ns, spans[i].end_ns);
    EXPECT_EQ(back[i].parent, spans[i].parent);
    EXPECT_EQ(back[i].trace, spans[i].trace);
  }
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 0u);   // run fully tiled by its phases
  EXPECT_EQ(self[3], 5u);   // teardown: 100 minus the 95 of report
  EXPECT_EQ(self[8], 20u);  // worker gaps

  std::vector<Span> merged = spans;
  AppendSpans(merged, spans);
  EXPECT_EQ(merged[spans.size() + 9].parent, static_cast<std::int32_t>(spans.size() + 8));

  std::ostringstream os;
  WriteChromeTrace(os, spans, 0);
  const Json trace = ParseJson(os.str());
  EXPECT_GE(trace["traceEvents"].items.size(), spans.size());
  EXPECT_EQ(trace["traceEvents"].items[9]["name"].text, "gos.write");
}

TEST(Trial, WorkerOutRoundTrips) {
  WorkerOut o;
  o.ops = 3;
  o.read_checksum = 77;
  o.cpu_ns = 1234;
  o.maxrss_kb = 9000;
  o.latency_ns = {10, 20, 4000000000u};
  o.spans = {{SpanName::kWorker, 1, 9, -1, 2, 2}, {SpanName::kRead, 2, 3, 0, 2, 2}};
  hmdsm::Writer w;
  EncodeWorkerOut(w, o);
  const hmdsm::Bytes bytes = w.take();
  hmdsm::Reader r(bytes);
  const WorkerOut back = DecodeWorkerOut(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.ops, 3u);
  EXPECT_EQ(back.read_checksum, 77u);
  EXPECT_EQ(back.cpu_ns, 1234u);
  EXPECT_EQ(back.maxrss_kb, 9000u);
  EXPECT_EQ(back.latency_ns, o.latency_ns);
  ASSERT_EQ(back.spans.size(), 2u);
  EXPECT_EQ(back.spans[1].name, SpanName::kRead);
}

}  // namespace
}  // namespace perfbench

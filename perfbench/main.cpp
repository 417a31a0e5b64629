// coperf repository benchmark: one workload per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected DIR [--spans DIR] [--commit C] [--source-digest D]
//
// --trace 0 sets the workload up several times (setup_s is the
// median), then repeats its timed section for about S seconds and
// reports medians of the end-to-end metrics. --trace 1 runs the
// timed section once untraced and once with spans at every module
// boundary, and reports the per-layer metrics. Both check every
// output; a failed check fails every operation of the run and exits 1.
// The last stdout line is the result object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "provenance.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;
using perfbench::Metrics;

const std::int64_t kProcessStart = perfbench::now_ns();

/// Host lanes for plan and truth builds. Two, not every core: on a
/// shared 4-core host, runs at four lanes spread about 12% run to run
/// against about 5% at two, with the simulated work identical.
constexpr unsigned kMaxLanes = 2;
constexpr int kSetups = 5;
/// The span file keeps the first spans only: a fleet run records
/// millions, and every per-layer metric is computed in memory.
constexpr std::size_t kMaxSpanLines = 200'000;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},   {"wall_s", "s"},          {"cpu_s", "s"},
      {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"}};
  return defs;
}

const std::vector<MetricDef>& per_layer() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"sim.run_s", "s"},
        {"sim.ns_per_access", "ns"},
        {"sim.ns_per_instruction", "ns"},
        {"sim.ns_per_dram_line", "ns"}};
    for (const char* w : {"Stream", "Bandit", "G-PR", "CIFAR", "fotonik3d",
                          "swaptions", "IRSmk", "blackscholes", "kvserve",
                          "lsmserve"})
      d.push_back({std::string("sim.ns_per_access.") + w, "ns"});
    d.insert(d.end(), {{"sim.machine_setup_ms", "ms"},
                       {"sim.trial_ms_p50", "ms"},
                       {"sim.trial_ms_tail", "ms"},
                       {"sim.trial_ms_tail_pct", "%"},
                       {"sim.trial_ms_tail_beyond", "count"},
                       {"sim.trial_ms_max", "ms"},
                       {"sim.sim_cycles", "count"},
                       {"sim.instructions", "count"},
                       {"sim.accesses", "count"},
                       {"sim.l3_misses", "count"},
                       {"sim.dram_lines", "count"},
                       {"sim.prefetches_issued", "count"},
                       {"sim.prefetch_useful_ratio", "ratio"},
                       {"sim.self_s", "s"},
                       {"wl.create_ms", "ms"},
                       {"wl.create_ms.G-PR", "ms"},
                       {"wl.footprint_mb", "MB"},
                       {"wl.self_s", "s"},
                       {"harness.execute_s", "s"},
                       {"harness.lane_utilization", "ratio"},
                       {"harness.idle_tail_s", "s"},
                       {"harness.trials", "count"},
                       {"harness.residue", "count"},
                       {"harness.hit_ratio", "ratio"},
                       {"harness.warm_execute_ms", "ms"},
                       {"harness.probe_us_per_trial", "us"},
                       {"harness.self_s", "s"},
                       {"trials_per_s", "1/s"},
                       {"predict.signature_us", "us"},
                       {"predict.predicted_matrix_ms", "ms"},
                       {"predict.train_ms.knn", "ms"},
                       {"predict.train_ms.lstsq", "ms"},
                       {"predict.predict_group_ns", "ns"},
                       {"predict.observe_group_us", "us"},
                       {"predict.self_s", "s"}});
    for (const char* p : {"random", "static-analytic", "online-lstsq",
                          "online-knn", "slo-aware", "oracle"}) {
      d.push_back({std::string("cluster.place_ns_p50.") + p, "ns"});
      d.push_back({std::string("cluster.place_ns_tail.") + p, "ns"});
      d.push_back({std::string("cluster.place_ns_tail_pct.") + p, "%"});
      d.push_back({std::string("cluster.place_ns_tail_beyond.") + p, "count"});
    }
    d.insert(d.end(), {{"cluster.machines_priced_per_decision", "count"},
                       {"cluster.open_machines_mean", "count"},
                       {"cluster.engine_ns_per_decision", "ns"},
                       {"cluster.truth_ns_per_decision", "ns"},
                       {"cluster.truth_queries_per_decision", "count"},
                       {"cluster.decisions", "count"},
                       {"cluster.migrations", "count"},
                       {"cluster.failures", "count"},
                       {"cluster.shed_jobs", "count"},
                       {"cluster.lost_work_ratio", "ratio"},
                       {"cluster.trace_gen_ms", "ms"},
                       {"cluster.self_s", "s"},
                       {"decisions_per_s", "1/s"},
                       {"obs.trace_overhead", "ratio"},
                       {"obs.unattributed_frac", "ratio"},
                       {"obs.spans", "count"},
                       {"failed_frac", "ratio"}});
    return d;
  }();
  return defs;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string expected_dir;
  std::string spans_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --expected DIR [--spans DIR] [--commit C] "
               "[--source-digest D]\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& v) {
  if (v.empty() || v.size() > 18 ||
      !std::all_of(v.begin(), v.end(), [](char c) { return c >= '0' && c <= '9'; }))
    usage("bad " + flag + " " + v);
  return std::stoull(v);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = parse_count(flag, v);
    else if (flag == "--seconds") a.seconds = static_cast<double>(parse_count(flag, v));
    else if (flag == "--trace") a.trace = static_cast<int>(parse_count(flag, v));
    else if (flag == "--expected") a.expected_dir = v;
    else if (flag == "--spans") a.spans_dir = v;
    else if (flag == "--commit") a.commit = v;
    else if (flag == "--source-digest") a.source_digest = v;
    else usage("unknown flag " + flag);
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0.0) usage("--seconds must be >= 1");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.expected_dir.empty()) usage("--expected is required");
  return a;
}

/// Self time per layer, the unattributed share of the root span, and
/// the tracing overhead against the untraced wall time.
void layer_metrics(perfbench::SpanBuffer& spans, double untraced_wall_s,
                   Metrics& m, std::vector<std::string>& failures) {
  const std::vector<perfbench::Span>& all = spans.spans();
  const std::vector<std::int64_t> self = perfbench::self_times(all);
  double by_layer[perfbench::kLayers] = {};
  const perfbench::Span* root = nullptr;
  for (std::size_t i = 0; i < all.size(); ++i) {
    by_layer[static_cast<std::size_t>(all[i].layer)] +=
        static_cast<double>(self[i]) / 1e9;
    if (all[i].layer == Layer::Root && all[i].parent == perfbench::kNoParent)
      root = &all[i];
  }
  for (const Layer l : {Layer::Sim, Layer::Wl, Layer::Harness, Layer::Predict,
                        Layer::Cluster})
    m[std::string(perfbench::layer_name(l)) + ".self_s"] =
        by_layer[static_cast<std::size_t>(l)];
  if (root == nullptr) {
    failures.push_back("traced run recorded no root span");
    return;
  }
  const double root_s = static_cast<double>(root->duration_ns()) / 1e9;
  const double unattributed = by_layer[static_cast<std::size_t>(Layer::Root)];
  m["obs.unattributed_frac"] = unattributed / root_s;
  m["obs.trace_overhead"] = root_s / untraced_wall_s - 1.0;
  m["obs.spans"] = static_cast<double>(all.size());
  // Layer spans must account for the traced wall: the benchmark's own
  // code between them may hold at most this share of it.
  constexpr double kUnattributedBound = 0.05;
  if (unattributed / root_s > kUnattributedBound)
    failures.push_back("layer spans leave " + number(unattributed / root_s) +
                       " of the traced wall unattributed");
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<MetricDef>& defs, const Metrics& values) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    os << (i == 0 ? "" : ", ") << "\"" << defs[i].name
       << "\": {\"value\": " << number(it == values.end() ? 0.0 : it->second)
       << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  perfbench::Config cfg;
  cfg.workload = args.workload;
  cfg.seed = args.seed;
  cfg.lanes = std::min(kMaxLanes, perfbench::usable_cores());
  cfg.expected_dir = args.expected_dir;
  auto workload = perfbench::make_workload(cfg);
  if (!workload) usage("unknown workload " + args.workload);

  perfbench::Provenance prov;
  prov.commit = args.commit;
  prov.source_digest = args.source_digest;
  prov.build_type = PERFBENCH_BUILD_TYPE;
  prov.compiler = PERFBENCH_COMPILER;
  prov.usable_cores = perfbench::usable_cores();
  prov.lanes = cfg.lanes;
  prov.seed = cfg.seed;
  prov.date = perfbench::utc_now();
  std::cout << "provenance " << prov.json() << "\n";

  try {
    // The first setup starts at process start, so it carries the
    // one-time initialization too; the median reports a steady setup.
    std::vector<double> setups;
    std::int64_t t0 = kProcessStart;
    for (int i = 0; i < kSetups; ++i) {
      workload->setup();
      const std::int64_t t1 = perfbench::now_ns();
      setups.push_back(static_cast<double>(t1 - t0) / 1e9);
      t0 = t1;
    }

    Metrics values;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    if (args.trace == 0) {
      // Iterate to the iteration count nearest the measuring budget:
      // start another while it would end less than half an iteration
      // past it (at least one runs).
      std::vector<double> walls, cpus;
      std::uint64_t ops = 0;
      const std::int64_t start = perfbench::now_ns();
      double elapsed = 0.0, last = 0.0;
      do {
        const std::int64_t iter0 = perfbench::now_ns();
        perfbench::Iteration it = workload->run();
        walls.push_back(it.wall_s);
        cpus.push_back(it.cpu_s);
        ops = it.ops;
        attempted += it.ops;
        failures.insert(failures.end(), it.failures.begin(), it.failures.end());
        last = static_cast<double>(perfbench::now_ns() - iter0) / 1e9;
        elapsed = static_cast<double>(perfbench::now_ns() - start) / 1e9;
      } while (elapsed + last / 2.0 <= args.seconds);
      const double wall = median(walls);
      values["setup_s"] = median(setups);
      values["wall_s"] = wall;
      values["cpu_s"] = median(cpus);
      values["ops_per_s"] = static_cast<double>(ops) / wall;
      values["peak_rss_mb"] = peak_rss_mb();
      std::cout << "iterations " << walls.size() << " wall_s";
      for (const double w : walls) std::cout << ' ' << number(w);
      std::cout << "\n";
    } else {
      perfbench::Iteration untraced = workload->run();
      attempted = untraced.ops;
      failures = untraced.failures;
      perfbench::SpanBuffer spans;
      values = workload->traced(spans, failures);
      layer_metrics(spans, untraced.wall_s, values, failures);
      if (!args.spans_dir.empty()) {
        const std::string path =
            args.spans_dir + "/" + args.workload + ".spans.tsv";
        std::ofstream out{path};
        out << "# provenance " << prov.json() << "\n";
        spans.write_tsv(out, kMaxSpanLines);
        if (!out) failures.push_back("could not write " + path);
      }
    }
    for (const std::string& f : failures) std::cerr << "CHECK FAILED: " << f << "\n";
    const bool correct = failures.empty();
    attempted = std::max<std::uint64_t>(attempted, 1);
    values["failed_frac"] = correct ? 0.0 : 1.0;
    print_result(correct, attempted, correct ? 0 : attempted,
                 args.trace == 0 ? end_to_end() : per_layer(), values);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string_view>
#include <unordered_map>

#include "cluster/cluster.hpp"
#include "decorators.hpp"
#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"
#include "harness/plan.hpp"
#include "harness/runcache.hpp"
#include "obs/metrics.hpp"
#include "predict/eval.hpp"
#include "predict/predicted_matrix.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

namespace cluster = coperf::cluster;
namespace harness = coperf::harness;
namespace predict = coperf::predict;
namespace wl = coperf::wl;

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_now() { return static_cast<double>(now_ns()) * 1e-9; }

/// Times one untraced timed section.
class Stopwatch {
 public:
  Stopwatch() : wall0_(wall_now()), cpu0_(cpu_now()) {}
  void stop(Iteration& it) const {
    it.wall_s = wall_now() - wall0_;
    it.cpu_s = cpu_now() - cpu0_;
  }

 private:
  double wall0_, cpu0_;
};

/// A span when tracing, nothing otherwise.
class MaybeScope {
 public:
  MaybeScope(SpanBuffer* spans, const char* name, Layer layer,
             std::uint64_t request = 0) {
    if (spans != nullptr) scope_.emplace(*spans, name, layer, request);
  }

 private:
  std::optional<Scope> scope_;
};

/// FNV-1a over everything written to it: hashes an audit log without
/// materializing its text.
class HashBuf final : public std::streambuf {
 public:
  std::uint64_t value() const { return h_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) mix(static_cast<unsigned char>(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i)
      mix(static_cast<unsigned char>(s[i]));
    return n;
  }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::string audit_hash(const cluster::TraceLog& log,
                       const std::vector<std::string>& names) {
  HashBuf buf;
  std::ostream os{&buf};
  log.write(os, names);
  return hex(buf.value());
}

std::string exact(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// Committed expected outputs: lines "<workload>\t<seed>\t<label>\t<value>"
/// in <dir>/<file>. A seed with no lines is not committed and is
/// checked by invariants only. Every observed value is echoed as a
/// "record" line in the same format, so a committed seed is added by
/// appending `grep ^record | cut -f2-` of a run's output.
class Expected {
 public:
  Expected(const Config& cfg, const std::string& file)
      : workload_(cfg.workload), seed_(std::to_string(cfg.seed)) {
    std::ifstream in{cfg.expected_dir + "/" + file};
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls{line};
      std::string w, s, label, value;
      if (std::getline(ls, w, '\t') && std::getline(ls, s, '\t') &&
          std::getline(ls, label, '\t') && std::getline(ls, value) &&
          w == workload_ && s == seed_)
        entries_[label] = value;
    }
  }

  bool committed() const { return !entries_.empty(); }

  void check(const std::string& label, const std::string& value,
             std::vector<std::string>& failures) const {
    std::cout << "record\t" << workload_ << '\t' << seed_ << '\t' << label
              << '\t' << value << '\n';
    if (!committed()) return;
    const auto it = entries_.find(label);
    if (it == entries_.end())
      failures.push_back("no committed expected value for " + label);
    else if (it->second != value)
      failures.push_back(label + " = " + value + ", committed " + it->second);
  }

 private:
  std::string workload_, seed_;
  std::map<std::string, std::string> entries_;
};

void require(bool ok, const std::string& what,
             std::vector<std::string>& failures) {
  if (!ok) failures.push_back(what);
}

/// Parks the RunCache disk layer (even when COPERF_RUN_CACHE_DIR is
/// set) and empties the memory layer, so every cold run simulates.
void isolate_run_cache() {
  harness::RunCache& cache = harness::RunCache::instance();
  cache.set_enabled(true);
  cache.set_disk_dir("");
  cache.clear();
  cache.reset_stats();
}

std::uint64_t runcache_misses() {
  return coperf::obs::Registry::instance().counter("runcache.misses").value();
}

/// Warm-up pass shared by the sim workloads: every axis workload's
/// solo, executed as one plan on the workload's lanes. It spawns the
/// pool, initializes the registry and warms each lane's allocator and
/// the code, so the timed section starts warm, and it gives set-up
/// enough work to time steadily. Leaves the RunCache isolated and
/// empty.
void warm_up(const std::vector<std::string>& names,
             const harness::RunOptions& opt, unsigned threads, unsigned lanes) {
  isolate_run_cache();
  harness::ExperimentPlan plan{opt};
  for (const std::string& w : names) plan.add_solo({w, threads, 1});
  (void)plan.execute(lanes);
  isolate_run_cache();
}

/// Cluster-run invariants for any seed: every arrival ends completed
/// or shed, exactly once, and with `stretch_floor` every completed
/// stretch is >= 1 (up to rounding). Measured group truth may hold
/// slowdowns just below 1, so its sweep skips the floor.
void check_outcomes(const std::string& label, const cluster::ClusterResult& r,
                    std::size_t arrivals, bool stretch_floor,
                    std::vector<std::string>& failures) {
  require(r.outcomes.size() == arrivals &&
              r.completed_jobs + r.shed_jobs == arrivals,
          label + ": completed + shed != arrivals", failures);
  std::size_t completed = 0, shed = 0, short_stretch = 0;
  double min_stretch = 1.0;
  for (const cluster::JobOutcome& o : r.outcomes) {
    completed += o.completed() ? 1 : 0;
    shed += o.shed ? 1 : 0;
    // The repository's cluster tests allow the same rounding: the
    // engine's finish times carry ~1e-15 relative error.
    if (stretch_floor && o.completed() && o.stretch() < 1.0 - 1e-9) {
      ++short_stretch;
      min_stretch = std::min(min_stretch, o.stretch());
    }
  }
  require(completed == r.completed_jobs && shed == r.shed_jobs,
          label + ": outcome flags disagree with the totals", failures);
  require(short_stretch == 0,
          label + ": " + std::to_string(short_stretch) +
              " completed job(s) with stretch < 1 (lowest " +
              exact(min_stretch) + ")",
          failures);
}

/// Slot time of attempts ended by a kill or an eviction, over the solo
/// work of completed jobs, read from the audit log.
struct LostWork {
  double lost = 0.0;
  double completed = 0.0;
};
void add_lost_work(const cluster::ClusterResult& r, LostWork& acc) {
  std::unordered_map<std::size_t, double> running;
  using Kind = cluster::TraceEvent::Kind;
  for (const cluster::TraceEvent& e : r.log.events) {
    switch (e.kind) {
      case Kind::Place: running[e.job] = e.time; break;
      case Kind::Finish: running.erase(e.job); break;
      case Kind::Evict:
      case Kind::Shed: {
        const auto it = running.find(e.job);
        if (it != running.end()) {
          acc.lost += e.time - it->second;
          running.erase(it);
        }
        break;
      }
      default: break;
    }
  }
  for (const cluster::JobOutcome& o : r.outcomes)
    if (o.completed()) acc.completed += o.work;
}

/// Per-policy place() latency and engine cost, from the spans of the
/// decorated simulate() calls.
void cluster_span_metrics(const std::vector<Span>& spans,
                          const std::vector<std::int64_t>& self,
                          const std::map<std::uint32_t, std::string>& runs,
                          const ClusterCounters& counters, Metrics& m) {
  std::map<std::string, std::vector<double>> place_ns;
  double engine_ns = 0.0, truth_ns = 0.0;
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // The simulate() call a span belongs to: walk up to a run span.
  const auto run_of = [&](std::size_t i) -> const std::string* {
    for (std::uint32_t p = spans[i].parent; p != kNoParent;) {
      const auto r = runs.find(p);
      if (r != runs.end()) return &r->second;
      const auto it = index.find(p);
      if (it == index.end()) return nullptr;
      p = spans[it->second].parent;
    }
    return nullptr;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name = s.name;
    if (runs.count(s.id) != 0) {
      engine_ns += static_cast<double>(self[i]);
    } else if (name == "cluster.place") {
      if (const std::string* policy = run_of(i))
        place_ns[*policy].push_back(static_cast<double>(s.duration_ns()));
    } else if (name == "harness.truth_query" && run_of(i) != nullptr) {
      truth_ns += static_cast<double>(s.duration_ns());
    }
  }
  for (auto& [policy, samples] : place_ns) {
    m["cluster.place_ns_p50." + policy] = percentile(samples, 50.0);
    const Tail t = tail_of(std::move(samples));
    m["cluster.place_ns_tail." + policy] = t.value;
    m["cluster.place_ns_tail_pct." + policy] = t.percentile;
    m["cluster.place_ns_tail_beyond." + policy] = static_cast<double>(t.beyond);
  }
  const double d = static_cast<double>(std::max<std::uint64_t>(counters.decisions, 1));
  m["cluster.machines_priced_per_decision"] =
      static_cast<double>(counters.views) / d;
  m["cluster.open_machines_mean"] = static_cast<double>(counters.open_total) / d;
  m["cluster.engine_ns_per_decision"] = engine_ns / d;
  m["cluster.truth_ns_per_decision"] = truth_ns / d;
  m["cluster.truth_queries_per_decision"] =
      static_cast<double>(counters.truth_queries) / d;
}

/// Exact counts of undecorated cluster runs (they must repeat exactly).
void cluster_count_metrics(const std::vector<const cluster::ClusterResult*>& rs,
                           Metrics& m) {
  double decisions = 0, migrations = 0, failures = 0, shed = 0;
  LostWork lw;
  for (const cluster::ClusterResult* r : rs) {
    for (const cluster::TraceEvent& e : r->log.events)
      decisions += e.kind == cluster::TraceEvent::Kind::Place ? 1 : 0;
    migrations += static_cast<double>(r->migrations);
    failures += static_cast<double>(r->failures);
    shed += static_cast<double>(r->shed_jobs);
    add_lost_work(*r, lw);
  }
  m["cluster.decisions"] = decisions;
  m["cluster.migrations"] = migrations;
  m["cluster.failures"] = failures;
  m["cluster.shed_jobs"] = shed;
  m["cluster.lost_work_ratio"] = lw.completed > 0.0 ? lw.lost / lw.completed : 0.0;
}

/// The sim, wl and harness metrics of a traced replay.
void replay_metrics(const std::vector<ReplayedTrial>& trials,
                    const Span& execute, unsigned lanes, Metrics& m) {
  double run_ns = 0, setup_ns = 0, trial_sum_ns = 0;
  double cycles = 0, instructions = 0, accesses = 0, l3_misses = 0,
         dram_lines = 0, prefetches = 0, pf_fills = 0, pf_useful = 0;
  double create_ns = 0, creates = 0, gpr_ns = 0, gprs = 0, footprint = 0;
  std::vector<double> trial_ms;
  for (const ReplayedTrial& t : trials) {
    run_ns += t.run_ns;
    setup_ns += t.setup_ns;
    trial_sum_ns += t.trial_ns;
    trial_ms.push_back(t.trial_ns / 1e6);
    double trial_accesses = 0;
    for (const coperf::sim::CoreStats& s : t.member_stats) {
      cycles += static_cast<double>(s.cycles);
      instructions += static_cast<double>(s.instructions);
      trial_accesses += static_cast<double>(s.loads + s.stores);
      l3_misses += static_cast<double>(s.l3_misses);
      dram_lines += static_cast<double>(s.bytes_from_mem / 64);
      prefetches += static_cast<double>(s.prefetches_issued);
    }
    accesses += trial_accesses;
    pf_fills += static_cast<double>(t.prefetch_fills);
    pf_useful += static_cast<double>(t.prefetch_useful);
    if (t.workloads.size() == 1 && trial_accesses > 0)
      m["sim.ns_per_access." + t.workloads[0]] = t.run_ns / trial_accesses;
    for (std::size_t i = 0; i < t.workloads.size(); ++i) {
      create_ns += t.create_ns[i];
      creates += 1;
      footprint += static_cast<double>(t.footprint_bytes[i]);
      if (t.workloads[i] == "G-PR") {
        gpr_ns += t.create_ns[i];
        gprs += 1;
      }
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(trials.size(), 1));
  m["sim.run_s"] = run_ns / 1e9;
  m["sim.ns_per_access"] = accesses > 0 ? run_ns / accesses : 0.0;
  m["sim.ns_per_instruction"] = instructions > 0 ? run_ns / instructions : 0.0;
  m["sim.ns_per_dram_line"] = dram_lines > 0 ? run_ns / dram_lines : 0.0;
  m["sim.machine_setup_ms"] = setup_ns / n / 1e6;
  m["sim.trial_ms_p50"] = percentile(trial_ms, 50.0);
  m["sim.trial_ms_max"] =
      trial_ms.empty() ? 0.0 : *std::max_element(trial_ms.begin(), trial_ms.end());
  const Tail tail = tail_of(trial_ms);
  m["sim.trial_ms_tail"] = tail.value;
  m["sim.trial_ms_tail_pct"] = tail.percentile;
  m["sim.trial_ms_tail_beyond"] = static_cast<double>(tail.beyond);
  m["sim.sim_cycles"] = cycles;
  m["sim.instructions"] = instructions;
  m["sim.accesses"] = accesses;
  m["sim.l3_misses"] = l3_misses;
  m["sim.dram_lines"] = dram_lines;
  m["sim.prefetches_issued"] = prefetches;
  m["sim.prefetch_useful_ratio"] = pf_fills > 0 ? pf_useful / pf_fills : 0.0;
  m["wl.create_ms"] = creates > 0 ? create_ns / creates / 1e6 : 0.0;
  m["wl.create_ms.G-PR"] = gprs > 0 ? gpr_ns / gprs / 1e6 : 0.0;
  m["wl.footprint_mb"] = creates > 0 ? footprint / creates / 1e6 : 0.0;
  const double exec_s = static_cast<double>(execute.duration_ns()) / 1e9;
  m["harness.execute_s"] = exec_s;
  m["harness.lane_utilization"] =
      exec_s > 0 ? trial_sum_ns / 1e9 / (exec_s * lanes) : 0.0;
  m["harness.idle_tail_s"] = exec_s - trial_sum_ns / 1e9 / lanes;
}

const Span* find_span(const std::vector<Span>& spans, const char* name) {
  for (const Span& s : spans)
    if (std::string_view{s.name} == name) return &s;
  return nullptr;
}

/// The cold RunCache accounting of one plan execution.
struct PlanCounts {
  std::size_t trials = 0;
  std::size_t residue = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

void plan_metrics(const PlanCounts& c, Metrics& m) {
  m["harness.trials"] = static_cast<double>(c.trials);
  m["harness.residue"] = static_cast<double>(c.residue);
  const double probes = static_cast<double>(c.hits + c.misses);
  m["harness.hit_ratio"] = probes > 0 ? static_cast<double>(c.hits) / probes : 0.0;
}

const std::vector<std::string> kTinySet = {
    "Stream", "Bandit", "G-PR", "CIFAR", "fotonik3d",
    "swaptions", "IRSmk", "blackscholes"};

// ---------------------------------------------------------------------
// corun_matrix: the cold Fig. 5 matrix over the Tiny set
// ---------------------------------------------------------------------

class CorunMatrixWorkload final : public Workload {
 public:
  explicit CorunMatrixWorkload(const Config& cfg) : cfg_(cfg) {}

  void setup() override {
    opt_ = harness::MatrixOptions{};
    opt_.run.size = wl::SizeClass::Tiny;
    opt_.run.threads = 4;
    opt_.run.bg_threads = 4;
    opt_.run.seed = cfg_.seed;
    opt_.reps = 1;
    opt_.subset = kTinySet;
    opt_.host_threads = cfg_.lanes;
    opt_.schedule = harness::ParallelSchedule::Dynamic;
    spec_ = harness::MatrixSpec{kTinySet, 1, {}};
    warm_up(kTinySet, opt_.run, opt_.run.threads, cfg_.lanes);
  }

  Iteration run() override {
    Iteration it;
    harness::RunCache& cache = harness::RunCache::instance();
    cache.clear();
    cache.reset_stats();
    harness::ExperimentPlan plan{opt_.run};
    plan.add_matrix(spec_);
    counts_.trials = plan.trial_count();
    counts_.residue = plan.residue_count();
    const std::uint64_t misses0 = runcache_misses();
    const Stopwatch sw;
    cold_ = harness::corun_matrix(opt_);
    sw.stop(it);
    cold_wall_s_ = it.wall_s;
    const auto stats = cache.stats();
    counts_.hits = stats.hits;
    counts_.misses = stats.misses;
    it.ops = counts_.trials;
    require(counts_.residue == counts_.trials,
            "cold run found cached trials", it.failures);
    require(runcache_misses() - misses0 == counts_.residue,
            "runcache.misses delta != residue", it.failures);
    check_warm(cold_, it.failures);
    check_cells(cold_, it.failures);
    return it;
  }

  Metrics traced(SpanBuffer& spans, std::vector<std::string>& failures) override {
    std::vector<ReplayedTrial> replayed;
    std::vector<harness::Trial> trials;
    {
      const Scope root{spans, "bench.corun_matrix", Layer::Root};
      {
        const Scope s{spans, "harness.plan", Layer::Harness};
        harness::ExperimentPlan plan{opt_.run};
        plan.add_matrix(spec_);
        trials = plan.trials();
      }
      {
        const Scope s{spans, "harness.execute", Layer::Harness};
        replayed = replay_all(trials, cfg_.lanes, spans, s.id());
      }
      {
        const Scope s{spans, "harness.warm_execute", Layer::Harness};
        check_warm(cold_, failures);
      }
    }
    for (std::size_t i = 0; i < trials.size(); ++i)
      if (!replay_matches(trials[i], replayed[i]))
        failures.push_back("replay of trial " + trials[i].key +
                           " diverged from the plan's CoreStats");
    const std::vector<Span>& all = spans.spans();
    Metrics m;
    replay_metrics(replayed, *find_span(all, "harness.execute"), cfg_.lanes, m);
    plan_metrics(counts_, m);
    const Span& warm = *find_span(all, "harness.warm_execute");
    m["harness.warm_execute_ms"] = static_cast<double>(warm.duration_ns()) / 1e6;
    m["harness.probe_us_per_trial"] =
        static_cast<double>(warm.duration_ns()) / 1e3 /
        static_cast<double>(trials.size());
    m["trials_per_s"] = static_cast<double>(counts_.trials) / cold_wall_s_;
    return m;
  }

 private:
  /// A warm re-execute must return the identical matrix with zero new
  /// simulations.
  void check_warm(const harness::CorunMatrix& cold,
                  std::vector<std::string>& failures) const {
    const std::uint64_t misses0 = runcache_misses();
    const harness::CorunMatrix warm = harness::corun_matrix(opt_);
    require(runcache_misses() == misses0, "warm re-execute simulated",
            failures);
    require(warm.normalized == cold.normalized &&
                warm.solo_cycles == cold.solo_cycles,
            "warm re-execute returned a different matrix", failures);
  }

  void check_cells(const harness::CorunMatrix& m,
                   std::vector<std::string>& failures) const {
    const Expected expected{cfg_, "corun_matrix.tsv"};
    for (std::size_t f = 0; f < m.size(); ++f)
      for (std::size_t b = 0; b < m.size(); ++b) {
        const double v = m.at(f, b);
        require(std::isfinite(v) && v > 0.0, "non-positive matrix cell",
                failures);
        expected.check(m.workloads[f] + "|" + m.workloads[b], exact(v),
                       failures);
      }
  }

  Config cfg_;
  harness::MatrixOptions opt_;
  harness::MatrixSpec spec_;
  harness::CorunMatrix cold_;
  PlanCounts counts_;
  double cold_wall_s_ = 0.0;
};

// ---------------------------------------------------------------------
// group_truth: arity-3 group truth, the prediction steps, and a small
// SLO-carrying cluster sweep over six policies
// ---------------------------------------------------------------------

class GroupTruthWorkload final : public Workload {
 public:
  explicit GroupTruthWorkload(const Config& cfg) : cfg_(cfg) {}

  void setup() override {
    gcfg_ = harness::GroupTruth::Config{};
    gcfg_.workloads = kAxis;
    gcfg_.opt.size = wl::SizeClass::Tiny;
    gcfg_.opt.seed = cfg_.seed;
    gcfg_.member_threads =
        gcfg_.opt.machine.num_cores / kSlots;  // a full machine holds kSlots
    gcfg_.reps = 1;
    gcfg_.max_arity = kSlots;
    gcfg_.host_threads = cfg_.lanes;
    traces_.clear();
    for (std::uint64_t k = 1; k <= kTraceSeeds; ++k) {
      cluster::TraceOptions topt;
      topt.jobs = 1000;
      topt.seed = cfg_.seed * 1000 + k;
      topt.mean_work = 8.0;
      topt.mean_interarrival =
          topt.mean_work / (0.8 * static_cast<double>(kMachines * kSlots));
      auto trace = cluster::synthetic_trace(kAxis.size(), topt);
      for (cluster::JobSpec& j : trace)
        if (j.type >= kFirstServing) j.slo_p99 = kSlo;
      traces_.push_back(std::move(trace));
    }
    warm_up(kAxis, gcfg_.opt, gcfg_.member_threads, cfg_.lanes);
  }

  Iteration run() override {
    Iteration it;
    harness::RunCache& cache = harness::RunCache::instance();
    cache.clear();
    cache.reset_stats();
    trials_.clear();
    const std::uint64_t misses0 = runcache_misses();
    const Stopwatch sw;
    harness::GroupTruth truth{gcfg_};
    const double t_truth = wall_now();
    const auto pstats = truth.prefetch_all(
        kSlots, [this](std::size_t, std::size_t, const harness::Trial& t) {
          trials_.push_back(t);  // serialized by the plan
        });
    truth_s_ = wall_now() - t_truth;
    const double t_rest = wall_now();
    runs_ = downstream(truth, nullptr, nullptr);
    sweep_s_ = wall_now() - t_rest;
    sw.stop(it);
    const auto stats = cache.stats();
    counts_ = PlanCounts{pstats.trials, pstats.residue, stats.hits, stats.misses};
    it.ops = pstats.trials;
    require(pstats.residue == pstats.trials, "cold truth build found cached trials",
            it.failures);
    require(runcache_misses() - misses0 == pstats.residue,
            "runcache.misses delta != residue", it.failures);
    require(truth.truncated_trials() == 0, "truncated group trials",
            it.failures);
    const Expected expected{cfg_, "audit_hashes.tsv"};
    for (Run& r : runs_) {
      r.hash = audit_hash(r.result.log, kAxis);
      require(r.result.pairwise_fallbacks == 0,
              r.label + ": pairwise fallbacks", it.failures);
      check_outcomes(r.label, r.result, traces_[r.trace].size(),
                     /*stretch_floor=*/false, it.failures);
      expected.check(r.label, r.hash, it.failures);
      if (r.policy == "oracle")
        require(r.result.mean_decision_regret == 0.0,
                r.label + ": oracle regret != 0", it.failures);
    }
    return it;
  }

  Metrics traced(SpanBuffer& spans, std::vector<std::string>& failures) override {
    std::vector<ReplayedTrial> replayed;
    ClusterCounters counters;
    std::vector<Run> runs;
    {
      const Scope root{spans, "bench.group_truth", Layer::Root};
      {
        const Scope s{spans, "harness.execute", Layer::Harness};
        replayed = replay_all(trials_, cfg_.lanes, spans, s.id());
      }
      harness::GroupTruth truth{gcfg_};
      {
        const Scope s{spans, "harness.warm_execute", Layer::Harness};
        const std::uint64_t misses0 = runcache_misses();
        truth.prefetch_all(kSlots);
        require(runcache_misses() == misses0, "warm truth build simulated",
                failures);
      }
      runs = downstream(truth, &spans, &counters);
    }
    for (std::size_t i = 0; i < trials_.size(); ++i)
      if (!replay_matches(trials_[i], replayed[i]))
        failures.push_back("replay of trial " + trials_[i].key +
                           " diverged from the plan's CoreStats");
    require(runs.size() == runs_.size(), "traced sweep ran a different set",
            failures);
    for (std::size_t i = 0; i < runs.size() && i < runs_.size(); ++i)
      require(audit_hash(runs[i].result.log, kAxis) == runs_[i].hash,
              runs[i].label + ": decorated audit log differs", failures);

    const std::vector<Span>& all = spans.spans();
    const std::vector<std::int64_t> self = self_times(all);
    Metrics m;
    replay_metrics(replayed, *find_span(all, "harness.execute"), cfg_.lanes, m);
    plan_metrics(counts_, m);
    const Span& warm = *find_span(all, "harness.warm_execute");
    m["harness.warm_execute_ms"] = static_cast<double>(warm.duration_ns()) / 1e6;
    m["harness.probe_us_per_trial"] = static_cast<double>(warm.duration_ns()) /
                                      1e3 / static_cast<double>(trials_.size());

    std::map<std::string, std::pair<double, double>> predict;  // Σns, n
    std::map<std::uint32_t, std::string> run_spans;
    for (const Span& s : all) {
      const std::string_view name = s.name;
      if (name == "cluster.simulate") run_spans[s.id] = runs[s.request].policy;
      if (s.layer == Layer::Predict) {
        auto& [sum, n] = predict[std::string(name)];
        sum += static_cast<double>(s.duration_ns());
        n += 1;
      }
    }
    const auto mean_ns = [&](const std::string& name) {
      const auto it = predict.find(name);
      return it == predict.end() ? 0.0 : it->second.first / it->second.second;
    };
    m["predict.signature_us"] = mean_ns("predict.signature") / 1e3;
    m["predict.predicted_matrix_ms"] = mean_ns("predict.predicted_matrix") / 1e6;
    m["predict.train_ms.knn"] = mean_ns("predict.train.knn") / 1e6;
    m["predict.train_ms.lstsq"] = mean_ns("predict.train.lstsq") / 1e6;
    m["predict.predict_group_ns"] = mean_ns("predict.predict_group");
    m["predict.observe_group_us"] = observe_us(all, run_spans);
    cluster_span_metrics(all, self, run_spans, counters, m);
    std::vector<const cluster::ClusterResult*> rs;
    for (const Run& r : runs_) rs.push_back(&r.result);
    cluster_count_metrics(rs, m);
    m["trials_per_s"] = static_cast<double>(counts_.trials) / truth_s_;
    m["decisions_per_s"] = m["cluster.decisions"] / sweep_s_;
    return m;
  }

 private:
  struct Run {
    std::string policy;
    std::string label;  ///< "<trace seed>/<policy>"
    std::size_t trace = 0;
    cluster::ClusterResult result;
    std::string hash;
  };

  /// Everything after the truth build: signatures, the analytic
  /// predicted matrix, kNN/lstsq distillation, group evaluation, and
  /// the cluster sweep. With `spans` set every step is spanned and the
  /// sweep's policy, view and truth are decorated.
  std::vector<Run> downstream(harness::GroupTruth& truth, SpanBuffer* spans,
                              ClusterCounters* counters) const {
    std::vector<predict::WorkloadSignature> sigs;
    for (std::size_t i = 0; i < kAxis.size(); ++i) {
      const harness::RunResult& solo = truth.solo(i);
      const MaybeScope s{spans, "predict.signature", Layer::Predict, i};
      sigs.push_back(predict::WorkloadSignature::from(solo, gcfg_.opt.machine));
    }
    const harness::CorunMatrix& pairwise = truth.pairwise();
    const predict::BandwidthContentionModel analytic;
    harness::CorunMatrix predicted;
    std::vector<predict::TrainingPair> distilled;
    {
      const MaybeScope s{spans, "predict.predicted_matrix", Layer::Predict};
      predicted = predict::predicted_matrix(sigs, analytic);
    }
    {
      const MaybeScope s{spans, "predict.distill", Layer::Predict};
      distilled = predict::training_pairs(predicted, sigs);
    }
    {
      const MaybeScope s{spans, "predict.evaluate_groups", Layer::Predict};
      std::vector<harness::GroupObservation> big;
      for (auto& o : truth.observations())
        if (o.others.size() >= 2) big.push_back(std::move(o));
      if (spans != nullptr) {
        const TracedModel traced{analytic, *spans};
        (void)predict::evaluate_groups(big, sigs, pairwise, traced);
      } else {
        (void)predict::evaluate_groups(big, sigs, pairwise, analytic);
      }
    }
    harness::CorunMatrix tail = pairwise;
    {
      const MaybeScope s{spans, "harness.tail_matrix", Layer::Harness};
      for (std::size_t a = 0; a < kAxis.size(); ++a)
        for (std::size_t b = 0; b < kAxis.size(); ++b)
          tail.normalized[a][b] = truth.tail_slowdown(a, {b});
    }

    cluster::ClusterConfig ccfg;
    ccfg.machines = kMachines;
    ccfg.slots = kSlots;
    std::vector<Run> runs;
    for (std::size_t k = 0; k < traces_.size(); ++k) {
      const std::vector<cluster::JobSpec>& trace = traces_[k];
      const std::uint64_t trace_seed = cfg_.seed * 1000 + k + 1;
      std::unique_ptr<predict::LeastSquaresModel> lstsq;
      std::unique_ptr<predict::KnnModel> knn;
      {
        const MaybeScope s{spans, "predict.train.lstsq", Layer::Predict};
        lstsq = std::make_unique<predict::LeastSquaresModel>();
        lstsq->train(distilled);
      }
      {
        const MaybeScope s{spans, "predict.train.knn", Layer::Predict};
        knn = std::make_unique<predict::KnnModel>();
        knn->train(distilled);
      }
      std::optional<TracedTruth> traced_truth;
      if (spans != nullptr) traced_truth.emplace(truth, *spans, *counters);
      harness::InterferenceTruth& billing =
          traced_truth ? static_cast<harness::InterferenceTruth&>(*traced_truth)
                       : truth;
      std::vector<std::unique_ptr<cluster::PlacementPolicy>> policies;
      {
        const MaybeScope s{spans, "cluster.policy_init", Layer::Cluster};
        policies.push_back(std::make_unique<cluster::RandomPolicy>(trace_seed));
        policies.push_back(std::make_unique<cluster::CostModelPolicy>(
            "static-analytic", predicted));
        policies.push_back(std::make_unique<cluster::OnlineRefinedPolicy>(
            "online-lstsq", std::move(lstsq), sigs));
        policies.push_back(std::make_unique<cluster::OnlineRefinedPolicy>(
            "online-knn", std::move(knn), sigs));
        policies.push_back(std::make_unique<cluster::SloAwarePolicy>(
            "slo-aware", pairwise, tail));
        policies.push_back(
            std::make_unique<cluster::GroupTruthPolicy>("oracle", billing));
      }
      for (auto& policy : policies) {
        Run run;
        run.policy = policy->name();
        run.label = std::to_string(trace_seed) + "/" + run.policy;
        run.trace = k;
        if (spans != nullptr) {
          TracedPolicy traced{*policy, *spans, *counters};
          const Scope s{*spans, "cluster.simulate", Layer::Cluster, runs.size()};
          run.result = cluster::simulate(ccfg, billing, trace, traced);
        } else {
          run.result = cluster::simulate(ccfg, truth, trace, *policy);
        }
        runs.push_back(std::move(run));
      }
    }
    return runs;
  }

  /// Mean observe_group span of the online policies, which refine a
  /// predict model with each outcome.
  static double observe_us(const std::vector<Span>& spans,
                           const std::map<std::uint32_t, std::string>& runs) {
    double sum = 0, n = 0;
    for (const Span& s : spans) {
      if (std::string_view{s.name} != "predict.observe_group") continue;
      const auto r = runs.find(s.parent);
      if (r == runs.end() || r->second.rfind("online-", 0) != 0) continue;
      sum += static_cast<double>(s.duration_ns());
      n += 1;
    }
    return n > 0 ? sum / n / 1e3 : 0.0;
  }

  static constexpr std::size_t kMachines = 4;
  static constexpr unsigned kSlots = 3;
  static constexpr std::uint64_t kTraceSeeds = 3;
  static constexpr std::size_t kFirstServing = 4;  ///< kvserve, lsmserve
  static constexpr double kSlo = 1.5;
  inline static const std::vector<std::string> kAxis = {
      "Stream", "Bandit", "G-PR", "fotonik3d", "kvserve", "lsmserve"};

  Config cfg_;
  harness::GroupTruth::Config gcfg_;
  std::vector<std::vector<cluster::JobSpec>> traces_;
  std::vector<harness::Trial> trials_;
  std::vector<Run> runs_;
  PlanCounts counts_;
  double truth_s_ = 0.0, sweep_s_ = 0.0;
};

// ---------------------------------------------------------------------
// fleet_steady / fleet_churn: the fleet engine over a synthetic matrix
// ---------------------------------------------------------------------

/// Deterministic 8-type co-run matrix with hog/victim structure: type
/// b's aggression and type f's sensitivity rise with the index, so the
/// matrix spans harmonious (1.0x) to destructive (~1.9x) pairs. The
/// generator of bench/fleet_throughput.cpp.
harness::CorunMatrix synthetic_fleet_truth(std::size_t n_types) {
  harness::CorunMatrix m;
  for (std::size_t i = 0; i < n_types; ++i) {
    m.workloads.push_back("t" + std::to_string(i));
    m.solo_cycles.push_back(1'000'000);
  }
  m.normalized.assign(n_types, std::vector<double>(n_types, 1.0));
  const double den = static_cast<double>(n_types - 1);
  for (std::size_t f = 0; f < n_types; ++f)
    for (std::size_t b = 0; b < n_types; ++b) {
      const double sensitivity = 0.2 + 0.8 * static_cast<double>(f) / den;
      const double aggression = static_cast<double>(b) / den;
      m.normalized[f][b] = 1.0 + 1.1 * sensitivity * aggression;
    }
  return m;
}

struct FleetShape {
  std::size_t machines;
  std::size_t jobs;
  double load;  ///< arrival rate over slot capacity
  bool churn;   ///< machine faults, plus a protected config
};

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const Config& cfg, FleetShape shape)
      : cfg_(cfg), shape_(shape) {}

  /// Inputs, then a warm-up pass: the random policy (the oracle would
  /// price every open machine of the empty fleet) over the first 20k
  /// jobs, which warms the engine's allocations and the code.
  void setup() override {
    make_inputs(nullptr);
    const std::vector<cluster::JobSpec> prefix(
        trace_.begin(),
        trace_.begin() + static_cast<std::ptrdiff_t>(
                             std::min<std::size_t>(trace_.size(), 20'000)));
    harness::MatrixTruth truth{truth_};
    cluster::RandomPolicy random{7};
    (void)cluster::simulate(config(/*protect=*/false), truth, prefix, random);
  }

  Iteration run() override {
    Iteration it;
    const Stopwatch sw;
    runs_ = simulate_all(nullptr, nullptr);
    sw.stop(it);
    wall_s_ = it.wall_s;
    it.ops = trace_.size() * runs_.size();
    const Expected expected{cfg_, "audit_hashes.tsv"};
    for (Run& r : runs_) {
      r.hash = audit_hash(r.result.log, truth_.workloads);
      check_outcomes(r.label, r.result, trace_.size(), /*stretch_floor=*/true,
                     it.failures);
      expected.check(r.label, r.hash, it.failures);
      if (!shape_.churn && r.label == "oracle")
        require(r.result.mean_decision_regret == 0.0,
                "oracle regret != 0", it.failures);
    }
    return it;
  }

  Metrics traced(SpanBuffer& spans, std::vector<std::string>& failures) override {
    ClusterCounters counters;
    std::vector<Run> runs;
    {
      const Scope root{spans, "bench.fleet", Layer::Root};
      make_inputs(&spans);
      runs = simulate_all(&spans, &counters);
    }
    require(runs.size() == runs_.size(), "traced fleet ran a different set",
            failures);
    for (std::size_t i = 0; i < runs.size() && i < runs_.size(); ++i)
      require(audit_hash(runs[i].result.log, truth_.workloads) == runs_[i].hash,
              runs[i].label + ": decorated audit log differs", failures);

    const std::vector<Span>& all = spans.spans();
    const std::vector<std::int64_t> self = self_times(all);
    std::map<std::uint32_t, std::string> run_spans;
    for (const Span& s : all)
      if (std::string_view{s.name} == "cluster.simulate")
        run_spans[s.id] = runs[s.request].policy;
    Metrics m;
    cluster_span_metrics(all, self, run_spans, counters, m);
    std::vector<const cluster::ClusterResult*> rs;
    for (const Run& r : runs_) rs.push_back(&r.result);
    cluster_count_metrics(rs, m);
    m["cluster.trace_gen_ms"] =
        static_cast<double>(find_span(all, "cluster.trace_gen")->duration_ns()) /
        1e6;
    m["decisions_per_s"] = m["cluster.decisions"] / wall_s_;
    return m;
  }

 private:
  struct Run {
    std::string policy;
    std::string label;  ///< policy, or "<config>/<policy>" under churn
    cluster::ClusterResult result;
    std::string hash;
  };

  void make_inputs(SpanBuffer* spans) {
    const MaybeScope s{spans, "cluster.trace_gen", Layer::Cluster};
    truth_ = synthetic_fleet_truth(8);
    cluster::FleetTraceOptions topt;
    topt.jobs = shape_.jobs;
    topt.seed = cfg_.seed;
    topt.arrivals = cluster::ArrivalModel::Bursty;
    topt.work = cluster::WorkModel::Pareto;
    topt.class_shares = {0.75, 0.2, 0.05};
    topt.mean_interarrival =
        topt.mean_work /
        (shape_.load * static_cast<double>(shape_.machines * kSlots));
    trace_ = cluster::fleet_trace(truth_.size(), topt);
    faults_.clear();
    if (shape_.churn) {
      // ~3 outages per machine over the arrival span, 5% repair time.
      cluster::FaultScheduleOptions fopt;
      fopt.seed = cfg_.seed;
      fopt.horizon = trace_.back().arrival;
      fopt.mtbf = fopt.horizon / 3.0;
      fopt.mttr = fopt.mtbf / 20.0;
      faults_ = cluster::fault_schedule(shape_.machines, fopt);
    }
  }

  /// The fleet, its faults, and under `protect` admission control
  /// (shedding the best-effort class) plus preemptive migration.
  cluster::ClusterConfig config(bool protect) const {
    cluster::ClusterConfig cfg;
    cfg.machines = shape_.machines;
    cfg.slots = kSlots;
    cfg.regret_sample = 1000;
    cfg.faults = faults_;
    if (protect) {
      cfg.migration.preempt = true;
      cfg.admission.queue_limit = shape_.machines;
      cfg.admission.shed_below = 1;  // only the best-effort class
    }
    return cfg;
  }

  std::vector<Run> simulate_all(SpanBuffer* spans,
                                ClusterCounters* counters) const {
    std::vector<Run> runs;
    const std::vector<bool> configs =
        shape_.churn ? std::vector<bool>{false, true} : std::vector<bool>{false};
    for (const bool protect : configs) {
      const cluster::ClusterConfig cfg = config(protect);
      cluster::RandomPolicy random{7};
      cluster::CostModelPolicy oracle{"oracle", truth_};
      cluster::PlacementPolicy* policies[] = {&random, &oracle};
      for (cluster::PlacementPolicy* policy : policies) {
        Run run;
        run.policy = policy->name();
        run.label = shape_.churn
                        ? std::string(protect ? "protected/" : "baseline/") +
                              run.policy
                        : run.policy;
        harness::MatrixTruth truth{truth_};
        if (spans != nullptr) {
          TracedTruth traced_truth{truth, *spans, *counters};
          TracedPolicy traced{*policy, *spans, *counters};
          const Scope s{*spans, "cluster.simulate", Layer::Cluster, runs.size()};
          run.result = cluster::simulate(cfg, traced_truth, trace_, traced);
        } else {
          run.result = cluster::simulate(cfg, truth, trace_, *policy);
        }
        runs.push_back(std::move(run));
      }
    }
    return runs;
  }

  static constexpr std::size_t kSlots = 2;

  Config cfg_;
  FleetShape shape_;
  harness::CorunMatrix truth_;
  std::vector<cluster::JobSpec> trace_;
  std::vector<cluster::FaultEvent> faults_;
  std::vector<Run> runs_;
  double wall_s_ = 0.0;  ///< the last untraced timed section
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "corun_matrix", "group_truth", "fleet_steady", "fleet_churn"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  if (cfg.workload == "corun_matrix")
    return std::make_unique<CorunMatrixWorkload>(cfg);
  if (cfg.workload == "group_truth")
    return std::make_unique<GroupTruthWorkload>(cfg);
  if (cfg.workload == "fleet_steady")
    return std::make_unique<FleetWorkload>(
        cfg, FleetShape{4096, 200'000, 0.8, false});
  if (cfg.workload == "fleet_churn")
    return std::make_unique<FleetWorkload>(
        cfg, FleetShape{1024, 100'000, 1.35, true});
  return nullptr;
}

}  // namespace perfbench

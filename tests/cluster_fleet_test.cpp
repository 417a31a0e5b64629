// Fleet-engine tests: the indexed event loop (simulate) pinned against
// the reference scan loop (simulate_reference) -- byte-identical audit
// logs, matching regret -- plus the fleet trace generators, priority
// classes, regret sampling, the audit-log job-id regression, and the
// candidate index (select, and indexed pricing against the default
// ClusterView scan).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "cluster/cluster.hpp"
#include "cluster_fixtures.hpp"
#include "cluster_reference.hpp"
#include "harness/grouptruth.hpp"
#include "harness/matrix.hpp"
#include "util/rng.hpp"

namespace coperf::cluster {
namespace {

// --- engine equivalence ---------------------------------------------

// The tentpole guard: the indexed engine must reproduce the reference
// loop's audit log byte for byte and its regret, across policy
// families, on the additive synthetic truth.
TEST(FleetEquivalence, MatchesReferenceOnSyntheticTruth) {
  const auto truth = synthetic_truth();
  const auto sigs = synthetic_sigs();
  TraceOptions topt;
  topt.jobs = 500;
  topt.seed = 11;
  topt.mean_interarrival = 0.9;  // deep queueing: waiting lanes exercised
  const auto trace = synthetic_trace(truth.size(), topt);
  const ClusterConfig cfg{3, 2};

  for (int which = 0; which < 3; ++which) {
    const auto make_run = [&](auto&& run) {
      switch (which) {
        case 0: {
          RandomPolicy p{7};
          return run(p);
        }
        case 1: {
          CostModelPolicy p{"oracle", truth};
          return run(p);
        }
        default: {
          OnlineRefinedPolicy p{"online", distilled_model(truth, sigs), sigs};
          return run(p);
        }
      }
    };
    const ClusterResult ref = make_run([&](PlacementPolicy& p) {
      return simulate_reference(cfg, truth, trace, p);
    });
    const ClusterResult fleet = make_run(
        [&](PlacementPolicy& p) { return simulate(cfg, truth, trace, p); });
    EXPECT_EQ(ref.log.str(truth.workloads), fleet.log.str(truth.workloads))
        << "policy family " << which << " diverged from the reference loop";
    EXPECT_NEAR(ref.mean_decision_regret, fleet.mean_decision_regret, 1e-9);
    EXPECT_NEAR(ref.mean_stretch, fleet.mean_stretch, 1e-9);
    EXPECT_NEAR(ref.mean_corun_slowdown, fleet.mean_corun_slowdown, 1e-9);
    EXPECT_NEAR(ref.makespan, fleet.makespan, 1e-9);
    EXPECT_EQ(ref.billed_decisions, fleet.billed_decisions);
  }
}

// Same pin on a non-additive truth (measured 3-resident regime
// change), where slowdowns depend on the full resident multiset.
// Fallback counts are NOT compared: the indexed engine re-queries the
// oracle only when a resident set changes, the reference re-queries at
// every global event, so the counts legitimately differ.
TEST(FleetEquivalence, MatchesReferenceOnRegimeChangeTruth) {
  TraceOptions topt;
  topt.jobs = 400;
  topt.seed = 23;
  topt.mean_interarrival = 0.7;
  const auto trace = synthetic_trace(3, topt);
  const ClusterConfig cfg{2, 3};  // 3 slots: the 4.0x regime is reachable
  const auto workloads = RegimeChangeTruth::regime_matrix().workloads;

  RegimeChangeTruth truth_ref, truth_fleet;
  GroupTruthPolicy p_ref{"group-oracle", truth_ref};
  GroupTruthPolicy p_fleet{"group-oracle", truth_fleet};
  const auto ref = simulate_reference(cfg, truth_ref, trace, p_ref);
  const auto fleet = simulate(cfg, truth_fleet, trace, p_fleet);
  EXPECT_EQ(ref.log.str(workloads), fleet.log.str(workloads));
  EXPECT_NEAR(ref.mean_decision_regret, fleet.mean_decision_regret, 1e-9);
  EXPECT_NEAR(ref.mean_stretch, fleet.mean_stretch, 1e-9);
  EXPECT_EQ(ref.billed_decisions, fleet.billed_decisions);
}

// Same-instant completions on different machines resolve lowest
// machine first, as in the reference loop: identical neutral jobs
// (1.00x together) arrive in two waves and finish in exact ties while
// the queue refills the freed slots.
TEST(FleetEquivalence, TiedCompletionsFollowTheReference) {
  const auto truth = synthetic_truth();
  std::vector<JobSpec> trace;
  for (std::size_t i = 0; i < 12; ++i) {
    JobSpec j;
    j.id = i;
    j.type = 2;  // neutral
    j.arrival = i < 6 ? 0.0 : 1.0;
    j.work = 2.0;
    trace.push_back(j);
  }
  ClusterConfig cfg;
  cfg.machines = 4;
  CostModelPolicy p_ref{"oracle", truth}, p_fleet{"oracle", truth};
  const std::string ref =
      simulate_reference(cfg, truth, trace, p_ref).log.str(truth.workloads);
  EXPECT_EQ(ref, simulate(cfg, truth, trace, p_fleet).log.str(truth.workloads));
}

// --- audit-log job identity (the bugfix) ----------------------------

// Regression: Place and Finish events used to log the job's *trace
// index* instead of JobSpec::id, so any trace with non-identity ids
// produced an audit log whose Arrive lines disagreed with its
// Place/Finish lines about which job was which.
TEST(FleetAuditLog, PlaceAndFinishLogJobIdsNotTraceIndices) {
  const auto truth = synthetic_truth();
  TraceOptions topt;
  topt.jobs = 120;
  topt.seed = 9;
  auto trace = synthetic_trace(truth.size(), topt);
  for (std::size_t i = 0; i < trace.size(); ++i)
    trace[i].id = 1000 + 3 * i;  // non-identity, disjoint from indices

  for (int engine = 0; engine < 2; ++engine) {
    CostModelPolicy policy{"oracle", truth};
    const auto res = engine == 0
                         ? simulate_reference({2, 2}, truth, trace, policy)
                         : simulate({2, 2}, truth, trace, policy);
    // Every event must carry a JobSpec::id, and each job's Arrive,
    // Place, and Finish must agree on it (exactly one of each).
    std::map<std::size_t, std::array<int, 3>> kinds;
    for (const TraceEvent& e : res.log.events) {
      EXPECT_GE(e.job, 1000u) << "event logged a trace index, not an id";
      ++kinds[e.job][static_cast<int>(e.kind)];
    }
    EXPECT_EQ(kinds.size(), trace.size());
    for (const auto& [id, counts] : kinds) {
      EXPECT_EQ(counts[0], 1) << "job " << id;
      EXPECT_EQ(counts[1], 1) << "job " << id;
      EXPECT_EQ(counts[2], 1) << "job " << id;
    }
    ASSERT_EQ(res.outcomes.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
      EXPECT_EQ(res.outcomes[i].job, trace[i].id)
          << "outcome " << i << " lost its job identity";
  }
}

// --- floating-point discipline over long traces ---------------------

// The completion path clamps remaining work at zero per interval, so
// even a long, deeply-queued run never yields a stretch or co-run
// slowdown below 1: negative-residue drift would show up here.
TEST(FleetNumerics, LongTraceStretchStaysAboveOneAndReplays) {
  const auto truth = synthetic_truth();
  TraceOptions topt;
  topt.jobs = 20'000;
  topt.seed = 31;
  topt.mean_interarrival = 0.35;  // ~2.3x oversubscribed on 4 slots
  const auto trace = synthetic_trace(truth.size(), topt);
  const ClusterConfig cfg{2, 2};

  const auto run = [&] {
    CostModelPolicy policy{"oracle", truth};
    return simulate(cfg, truth, trace, policy);
  };
  const auto res = run();
  for (const JobOutcome& o : res.outcomes) {
    ASSERT_GE(o.stretch(), 1.0 - 1e-9) << "job " << o.job;
    ASSERT_GE(o.corun_slowdown(), 1.0 - 1e-9) << "job " << o.job;
  }
  EXPECT_GE(res.mean_stretch, 1.0 - 1e-9);
  // Deterministic replay: same inputs, byte-identical audit log.
  EXPECT_EQ(res.log.str(truth.workloads), run().log.str(truth.workloads));
}

// --- regret sampling ------------------------------------------------

// Billing is observational: sampling it must not perturb the
// simulation itself, only how many decisions are priced.
TEST(FleetRegret, SamplingChangesBillingNotDynamics) {
  const auto truth = synthetic_truth();
  TraceOptions topt;
  topt.jobs = 300;
  topt.seed = 13;
  const auto trace = synthetic_trace(truth.size(), topt);

  const auto run = [&](std::size_t sample) {
    ClusterConfig cfg{3, 2};
    cfg.regret_sample = sample;
    CostModelPolicy policy{"oracle", truth};
    return simulate(cfg, truth, trace, policy);
  };
  const auto every = run(1);
  const auto tenth = run(10);
  const auto never = run(0);
  EXPECT_EQ(every.billed_decisions, trace.size());
  EXPECT_EQ(tenth.billed_decisions, (trace.size() + 9) / 10);
  EXPECT_EQ(never.billed_decisions, 0u);
  EXPECT_DOUBLE_EQ(never.mean_decision_regret, 0.0);
  // The oracle's regret is 0 at any sampling rate.
  EXPECT_NEAR(every.mean_decision_regret, 0.0, 1e-12);
  EXPECT_NEAR(tenth.mean_decision_regret, 0.0, 1e-12);
  // Identical dynamics regardless of billing.
  EXPECT_EQ(every.log.str(truth.workloads), tenth.log.str(truth.workloads));
  EXPECT_EQ(every.log.str(truth.workloads), never.log.str(truth.workloads));
}

// --- priority classes -----------------------------------------------

TEST(FleetPriority, HigherClassLeavesTheQueueFirst) {
  harness::CorunMatrix truth;
  truth.workloads = {"unit"};
  truth.solo_cycles = {1};
  truth.normalized = {{1.0}};
  // One 2-slot machine, full until t=4; a best-effort job arrives at
  // t=1, a priority-3 job at t=2. The freed slot at t=4 must go to the
  // later, higher-class arrival.
  const std::vector<JobSpec> trace = {{0, 0, 0.0, 4.0, 0},
                                      {1, 0, 0.0, 8.0, 0},
                                      {2, 0, 1.0, 1.0, 0},
                                      {3, 0, 2.0, 1.0, 3}};
  CostModelPolicy policy{"oracle", truth};
  const auto res = simulate({1, 2}, truth, trace, policy);
  EXPECT_DOUBLE_EQ(res.outcomes[3].start, 4.0) << "priority job first";
  EXPECT_DOUBLE_EQ(res.outcomes[2].start, 5.0) << "best-effort job after";

  // All-zero priorities are plain FIFO -- and the reference loop only
  // accepts those.
  CostModelPolicy ref_policy{"oracle", truth};
  EXPECT_THROW(simulate_reference({1, 2}, truth, trace, ref_policy),
               std::invalid_argument);
  const std::vector<JobSpec> bad = {{0, 0, 0.0, 1.0, kMaxPriority + 1}};
  EXPECT_THROW(simulate({1, 2}, truth, bad, policy), std::invalid_argument);
}

// --- fleet trace generators -----------------------------------------

TEST(FleetTrace, GeneratorsAreDeterministicSortedAndValid) {
  for (const ArrivalModel am :
       {ArrivalModel::Poisson, ArrivalModel::Diurnal, ArrivalModel::Bursty}) {
    for (const WorkModel wm : {WorkModel::Uniform, WorkModel::Pareto}) {
      FleetTraceOptions opt;
      opt.jobs = 2000;
      opt.seed = 42;
      opt.arrivals = am;
      opt.work = wm;
      opt.class_shares = {0.7, 0.2, 0.1};
      const auto a = fleet_trace(5, opt);
      const auto b = fleet_trace(5, opt);
      EXPECT_EQ(a, b) << "fleet_trace must be seed-deterministic";
      opt.seed = 43;
      EXPECT_NE(a, fleet_trace(5, opt));
      ASSERT_EQ(a.size(), 2000u);
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, i);
        EXPECT_LT(a[i].type, 5u);
        EXPECT_GT(a[i].work, 0.0);
        EXPECT_LE(a[i].priority, 2u);
        if (i > 0) ASSERT_GE(a[i].arrival, a[i - 1].arrival);
      }
    }
  }
}

TEST(FleetTrace, ParetoWorkIsHeavyTailedAndCapped) {
  FleetTraceOptions opt;
  opt.jobs = 50'000;
  opt.seed = 7;
  opt.work = WorkModel::Pareto;
  opt.mean_work = 8.0;
  const auto trace = fleet_trace(3, opt);
  double max_work = 0.0, sum = 0.0;
  for (const JobSpec& j : trace) {
    max_work = std::max(max_work, j.work);
    sum += j.work;
    ASSERT_LE(j.work, opt.mean_work * kWorkCap + 1e-9);
  }
  const double mean = sum / static_cast<double>(trace.size());
  EXPECT_NEAR(mean, opt.mean_work, 0.2 * opt.mean_work)
      << "Pareto work is scaled to roughly unit mean";
  EXPECT_GT(max_work, 10.0 * opt.mean_work)
      << "a 50k-job kParetoAlpha draw must show the heavy tail";
  // Uniform work, same options, never leaves [0.5, 1.5] x mean.
  opt.work = WorkModel::Uniform;
  for (const JobSpec& j : fleet_trace(3, opt)) {
    ASSERT_GE(j.work, 0.5 * opt.mean_work);
    ASSERT_LE(j.work, 1.5 * opt.mean_work);
  }
}

TEST(FleetTrace, DiurnalLoadSwingsWithThePhase) {
  FleetTraceOptions opt;
  opt.jobs = 40'000;
  opt.seed = 3;
  opt.arrivals = ArrivalModel::Diurnal;
  opt.mean_interarrival = 1.0;
  const auto trace = fleet_trace(2, opt);
  // Count arrivals landing in the rising half of each period (sin > 0,
  // boosted rate) vs the falling half: the swing must be visible.
  std::size_t up = 0, down = 0;
  for (const JobSpec& j : trace) {
    const double phase = std::fmod(j.arrival, kDiurnalPeriod);
    (phase < kDiurnalPeriod / 2.0 ? up : down) += 1;
  }
  EXPECT_GT(static_cast<double>(up), 1.5 * static_cast<double>(down))
      << "peak-phase arrivals must clearly outnumber trough-phase ones";
}

TEST(FleetTrace, BurstyArrivalsAreBurstierThanPoisson) {
  FleetTraceOptions opt;
  opt.jobs = 40'000;
  opt.seed = 5;
  opt.mean_interarrival = 1.0;
  const auto cv2 = [](const std::vector<JobSpec>& trace) {
    double sum = 0.0, sq = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
      const double d = trace[i].arrival - trace[i - 1].arrival;
      sum += d;
      sq += d * d;
      ++n;
    }
    const double mean = sum / static_cast<double>(n);
    return (sq / static_cast<double>(n) - mean * mean) / (mean * mean);
  };
  opt.arrivals = ArrivalModel::Poisson;
  const double poisson_cv2 = cv2(fleet_trace(2, opt));
  opt.arrivals = ArrivalModel::Bursty;
  const double bursty_cv2 = cv2(fleet_trace(2, opt));
  EXPECT_NEAR(poisson_cv2, 1.0, 0.15) << "exponential interarrivals: CV^2=1";
  // Each interarrival is drawn at the base rate, or with probability
  // kBurstOn (the burst state's long-run share) at kBurstBoost times
  // it: a two-exponential mixture. Its first two moments, in units of
  // the base mean, give the CV^2 the generator must reproduce (1.165
  // at the built-in shape).
  const double m1 = kBurstOn / kBurstBoost + (1.0 - kBurstOn);
  const double m2 =
      2.0 * (kBurstOn / (kBurstBoost * kBurstBoost) + (1.0 - kBurstOn));
  EXPECT_NEAR(bursty_cv2, m2 / (m1 * m1) - 1.0, 0.08)
      << "interarrivals must follow the two-state mixture";
  EXPECT_GT(bursty_cv2, poisson_cv2)
      << "the two-state modulation must overdisperse interarrivals";
}

TEST(FleetTrace, PriorityClassSharesAreRespected) {
  FleetTraceOptions opt;
  opt.jobs = 30'000;
  opt.seed = 17;
  opt.class_shares = {0.6, 0.3, 0.1};
  const auto trace = fleet_trace(4, opt);
  std::array<std::size_t, 3> counts{};
  for (const JobSpec& j : trace) {
    ASSERT_LE(j.priority, 2u);
    ++counts[j.priority];
  }
  const double n = static_cast<double>(trace.size());
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.6, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.1, 0.02);
}

TEST(FleetTrace, RejectsDegenerateOptions) {
  EXPECT_THROW(fleet_trace(0, {}), std::invalid_argument);
  FleetTraceOptions bad;
  bad.mean_interarrival = 0.0;
  EXPECT_THROW(fleet_trace(2, bad), std::invalid_argument);
  bad = {};
  bad.class_shares = std::vector<double>(kMaxPriority + 2, 1.0);
  EXPECT_THROW(fleet_trace(2, bad), std::invalid_argument);
  bad = {};
  bad.class_shares = {0.5, -0.5};
  EXPECT_THROW(fleet_trace(2, bad), std::invalid_argument);
}

// --- fleet-shaped end-to-end run ------------------------------------

// A moderately large fleet run through the indexed engine: every job
// completes, identities survive, and sampled regret stays finite.
// (The real scale test is bench/fleet_throughput; this keeps the
// engine honest at a size ctest can afford.)
TEST(FleetEngine, HandlesAFleetShapedTrace) {
  const auto truth = synthetic_truth();
  FleetTraceOptions opt;
  opt.jobs = 30'000;
  opt.seed = 2;
  opt.arrivals = ArrivalModel::Bursty;
  opt.work = WorkModel::Pareto;
  opt.mean_interarrival = 8.0 / (0.8 * 64.0 * 2.0);
  opt.class_shares = {0.8, 0.2};
  const auto trace = fleet_trace(truth.size(), opt);
  ClusterConfig cfg{64, 2};
  cfg.regret_sample = 100;
  CostModelPolicy policy{"oracle", truth};
  const auto res = simulate(cfg, truth, trace, policy);
  ASSERT_EQ(res.outcomes.size(), trace.size());
  for (const JobOutcome& o : res.outcomes) {
    ASSERT_GT(o.finish, 0.0);
    ASSERT_GE(o.stretch(), 1.0 - 1e-9);
  }
  EXPECT_EQ(res.billed_decisions, (trace.size() + 99) / 100);
  EXPECT_NEAR(res.mean_decision_regret, 0.0, 1e-9)
      << "the additive oracle stays regret-free under sampling";
}

// --- candidate index --------------------------------------------------

// MachineSet::select must return what walking next() k times does,
// across densities and sizes that straddle word and block edges.
TEST(CandidateIndex, SelectMatchesTheLinearWalk) {
  util::SplitMix64 rng{42};
  for (const std::size_t n : {1u, 63u, 64u, 65u, 4095u, 4097u, 20'000u}) {
    for (const double density : {0.001, 0.1, 0.5, 0.97}) {
      detail::MachineSet set{n};
      std::vector<char> ref(n, 0);
      for (std::size_t i = 0; i < n; ++i)
        if (rng.uniform() < density) set.insert(i), ref[i] = 1;
      // Churn: erase and re-insert a few, so counts move both ways.
      for (std::size_t e = 0; e < n / 4 + 1; ++e) {
        const std::size_t i = rng.below(n);
        if (rng.uniform() < 0.5) set.erase(i), ref[i] = 0;
        else set.insert(i), ref[i] = 1;
      }
      std::size_t count = 0;
      for (const char c : ref) count += c;
      ASSERT_EQ(set.size(), count);
      std::size_t walk = set.next(0), k = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!ref[i]) continue;
        ASSERT_EQ(walk, i) << "next() skipped or invented a member";
        ASSERT_EQ(set.select(k), i) << "n=" << n << " k=" << k;
        ASSERT_TRUE(set.contains(i));
        walk = set.next(walk + 1);
        ++k;
      }
      EXPECT_EQ(walk, n);
      EXPECT_EQ(set.select(count), n);
    }
  }
}

// Forwards only the five required virtuals, so cheapest_open falls
// back to ClusterView's default scan over every open machine.
class ScanView final : public ClusterView {
 public:
  explicit ScanView(const ClusterView& inner) : inner_(inner) {}
  std::size_t machines() const override { return inner_.machines(); }
  std::size_t open_count() const override { return inner_.open_count(); }
  std::size_t kth_open(std::size_t k) const override {
    return inner_.kth_open(k);
  }
  std::size_t free_slots(std::size_t m) const override {
    return inner_.free_slots(m);
  }
  const MachineView& view(std::size_t m) const override {
    return inner_.view(m);
  }

 private:
  const ClusterView& inner_;
};

/// Runs the wrapped policy against a ScanView of the engine.
class ScanPolicy final : public PlacementPolicy {
 public:
  explicit ScanPolicy(PlacementPolicy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  using PlacementPolicy::place;
  std::size_t place(const JobSpec& job, const ClusterView& cluster) override {
    return inner_.place(job, ScanView{cluster});
  }
  void observe_group(const std::vector<std::size_t>& types,
                     const std::vector<double>& slowdowns) override {
    inner_.observe_group(types, slowdowns);
  }
  double last_cost_delta() const override { return inner_.last_cost_delta(); }

 private:
  PlacementPolicy& inner_;
};

/// Runs the wrapped policy and re-bills each decision the simulator
/// bills (every `sample`-th) by a scan of every open machine pricing
/// the true delta and the true SLO violation, on a shadow copy of the
/// truth. Its regret sums must match the simulator's bit for bit, and
/// the shadow's fallbacks are what scan billing counts.
class ScanBilling final : public PlacementPolicy {
 public:
  ScanBilling(PlacementPolicy& inner, const harness::CorunMatrix& truth,
              std::size_t sample, bool any_lc)
      : inner_(inner), shadow_(truth), sample_(sample), any_lc_(any_lc) {}
  std::string name() const override { return inner_.name(); }
  using PlacementPolicy::place;
  std::size_t place(const JobSpec& job, const ClusterView& cluster) override {
    const std::size_t m = inner_.place(job, cluster);
    if (decisions_++ % sample_ != 0) return m;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double chosen = 0.0, best = kInf, lc_chosen = 0.0, lc_best = kInf;
    for (std::size_t k = 0; k < cluster.open_count(); ++k) {
      const std::size_t v = cluster.kth_open(k);
      const double d = delta_.price(job, cluster.view(v)).delta;
      if (v == m) chosen = d;
      best = std::min(best, d);
      if (any_lc_) {
        const double lv = lc_.price(job, cluster.view(v)).violation;
        if (v == m) lc_chosen = lv;
        lc_best = std::min(lc_best, lv);
      }
    }
    regret += chosen - best;
    if (any_lc_) lc_regret += lc_chosen - lc_best;
    ++billed;
    return m;
  }
  void observe_group(const std::vector<std::size_t>& types,
                     const std::vector<double>& slowdowns) override {
    inner_.observe_group(types, slowdowns);
  }
  double last_cost_delta() const override { return inner_.last_cost_delta(); }
  std::uint64_t fallbacks() const { return shadow_.fallbacks(); }

  double regret = 0.0, lc_regret = 0.0;
  std::size_t billed = 0;

 private:
  PlacementPolicy& inner_;
  harness::MatrixTruth shadow_;
  Pricer delta_ = truth_pricer(shadow_), lc_ = slo_pricer(shadow_);
  std::size_t sample_;
  bool any_lc_;
  std::size_t decisions_ = 0;
};

harness::CorunMatrix matrix_of(
    const std::vector<std::vector<double>>& normalized) {
  harness::CorunMatrix m;
  for (std::size_t i = 0; i < normalized.size(); ++i) {
    m.workloads.push_back("t" + std::to_string(i));
    m.solo_cycles.push_back(1'000'000);
  }
  m.normalized = normalized;
  return m;
}

/// The three pricing regimes of the candidate index, over 8 types.
std::vector<harness::CorunMatrix> exactness_matrices() {
  constexpr std::size_t kTypes = 8;
  std::vector<std::vector<double>> hog(kTypes, std::vector<double>(kTypes));
  std::vector<std::vector<double>> sub1 = hog, flat = hog;
  util::SplitMix64 rng{5};
  for (std::size_t f = 0; f < kTypes; ++f)
    for (std::size_t b = 0; b < kTypes; ++b) {
      // Hog/victim: column 0 is harmless (exactly 1.0), so a type-0
      // resident's coefficient is exactly 0.
      hog[f][b] = 1.0 + 1.1 * (0.2 + 0.8 * f / 7.0) * (b / 7.0);
      // Sub-1 entries: negative coefficients walk classes downwards.
      // A few sit one ulp from 1: coefficients so small that adding
      // them to the job's own excess rounds away, so whole classes
      // tie and only ids decide.
      sub1[f][b] = 0.7 + 0.8 * rng.uniform();
      if (f > b && (f + b) % 3 == 0)
        sub1[f][b] = (f + b) % 2 ? 1.0 + 0x1p-52 : 1.0 - 0x1p-53;
      // All equal: every delta ties, so ids decide.
      flat[f][b] = 1.0;
    }
  return {matrix_of(hog), matrix_of(sub1), matrix_of(flat)};
}

std::vector<predict::WorkloadSignature> exactness_sigs(std::size_t n) {
  std::vector<predict::WorkloadSignature> sigs;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n - 1);
    predict::WorkloadSignature s;
    s.workload = "t" + std::to_string(i);
    s.threads = 4;
    s.bw_fraction = 0.05 + 0.9 * x;
    s.solo_bw_gbs = s.bw_fraction * 28.0;
    s.l2_pcp = 0.8 - 0.6 * x;
    s.mem_stall_frac = s.l2_pcp * 0.9;
    s.llc_mpki = 0.1 + 30.0 * x * x;
    s.l2_mpki = s.llc_mpki * 1.5;
    s.cpi = 1.0 + s.l2_pcp;
    s.ipc = 1.0 / s.cpi;
    s.ll = 100.0;
    s.footprint_vs_llc = s.bw_fraction * 2.0;
    s.prefetch_share = 0.5;
    s.solo_cycles = 1'000'000;
    s.solo_seconds = 3.7e-4;
    sigs.push_back(s);
  }
  return sigs;
}

void expect_same_result(const ClusterResult& a, const ClusterResult& b,
                        const std::vector<std::string>& workloads,
                        const std::string& where) {
  ASSERT_EQ(a.log.str(workloads), b.log.str(workloads)) << where;
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << where;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const JobOutcome& x = a.outcomes[i];
    const JobOutcome& y = b.outcomes[i];
    ASSERT_TRUE(x.machine == y.machine && x.start == y.start &&
                x.finish == y.finish && x.retries == y.retries &&
                x.evictions == y.evictions && x.shed == y.shed)
        << where << ": outcome of job " << i;
  }
  EXPECT_EQ(a.mean_stretch, b.mean_stretch) << where;
  EXPECT_EQ(a.mean_corun_slowdown, b.mean_corun_slowdown) << where;
  EXPECT_EQ(a.makespan, b.makespan) << where;
  EXPECT_EQ(a.mean_decision_regret, b.mean_decision_regret) << where;
  EXPECT_EQ(a.billed_decisions, b.billed_decisions) << where;
  EXPECT_EQ(a.pairwise_fallbacks, b.pairwise_fallbacks) << where;
  EXPECT_EQ(a.failures, b.failures) << where;
  EXPECT_EQ(a.recoveries, b.recoveries) << where;
  EXPECT_EQ(a.fault_kills, b.fault_kills) << where;
  EXPECT_EQ(a.migrations, b.migrations) << where;
  EXPECT_EQ(a.shed_jobs, b.shed_jobs) << where;
  EXPECT_EQ(a.shed_work, b.shed_work) << where;
  EXPECT_EQ(a.completed_jobs, b.completed_jobs) << where;
  ASSERT_EQ(a.class_stats.size(), b.class_stats.size()) << where;
  for (std::size_t c = 0; c < a.class_stats.size(); ++c) {
    const ClassStats& x = a.class_stats[c];
    const ClassStats& y = b.class_stats[c];
    EXPECT_TRUE(x.jobs == y.jobs && x.completed == y.completed &&
                x.shed == y.shed && x.work_completed == y.work_completed &&
                x.goodput == y.goodput && x.mean_stretch == y.mean_stretch &&
                x.mean_regret == y.mean_regret && x.billed == y.billed)
        << where << ": class " << c;
  }
}

// The indexed cheapest_open must pick what the default scan picks, bit
// for bit: same audit log and same ClusterResult for the cost-model,
// online-refined, group-truth and SLO-aware policies, across fleet
// sizes, slot counts, the three pricing regimes, and every
// fault/migration/admission mix. Every other cell's trace carries SLO
// budgets. The simulator's billing is checked against a scan of every
// open machine: the same regret sums bit for bit, and the same
// pairwise fallbacks (lone-resident machines never count one, and
// every multi-resident machine is still priced). Each cell draws its
// own trace and fault seed.
TEST(CandidateIndex, IndexedPricingMatchesTheDefaultScan) {
  const auto matrices = exactness_matrices();
  const auto sigs = exactness_sigs(8);
  std::vector<std::unique_ptr<predict::LeastSquaresModel>> trained;
  for (const harness::CorunMatrix& m : matrices)
    trained.push_back(distilled_model(m, sigs));
  const auto model = [&](std::size_t mi) {
    return std::make_unique<predict::LeastSquaresModel>(*trained[mi]);
  };
  std::uint64_t seed = 100;
  for (const std::size_t machines : {1u, 7u, 64u, 1000u}) {
    const std::size_t jobs = machines >= 1000 ? 300 : 300 + 4 * machines;
    for (const std::size_t slots : {2u, 3u}) {
      for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
        const harness::CorunMatrix& truth = matrices[mi];
        for (unsigned mix = 0; mix < 8; ++mix) {
          const bool faults = mix & 1, migration = mix & 2,
                     admission = mix & 4;
          const bool lc = ++seed % 2;
          FleetTraceOptions topt;
          topt.jobs = jobs;
          topt.seed = seed;
          topt.arrivals = ArrivalModel::Bursty;
          topt.work = WorkModel::Pareto;
          topt.class_shares = {0.7, 0.3};
          topt.mean_interarrival =
              topt.mean_work / (1.1 * static_cast<double>(machines * slots));
          auto trace = fleet_trace(truth.size(), topt);
          if (lc)
            for (JobSpec& j : trace)
              if (j.type < 3) j.slo_p99 = 1.1 + 0.1 * static_cast<double>(j.type);
          ClusterConfig cfg;
          cfg.machines = machines;
          cfg.slots = slots;
          cfg.regret_sample = 50;
          if (faults) {
            FaultScheduleOptions fopt;
            fopt.seed = seed;
            fopt.horizon = trace.back().arrival;
            fopt.mtbf = fopt.horizon / 2.0;
            fopt.mttr = fopt.mtbf / 10.0;
            cfg.faults = fault_schedule(machines, fopt);
          }
          cfg.migration.preempt = migration;
          if (admission) cfg.admission.queue_limit = machines;
          const std::string where =
              std::to_string(machines) + "x" + std::to_string(slots) +
              " matrix " + std::to_string(mi) + " mix " + std::to_string(mix);
          {
            CostModelPolicy indexed{"oracle", truth}, scanned{"oracle", truth};
            ScanBilling billing{indexed, truth, cfg.regret_sample, lc};
            ScanPolicy scan{scanned};
            const ClusterResult res = simulate(cfg, truth, trace, billing);
            expect_same_result(res, simulate(cfg, truth, trace, scan),
                               truth.workloads, where + " cost-model");
            ASSERT_EQ(billing.billed, res.billed_decisions) << where;
            EXPECT_EQ(billing.regret / static_cast<double>(billing.billed),
                      res.mean_decision_regret)
                << where;
            if (lc)
              EXPECT_EQ(billing.lc_regret / static_cast<double>(billing.billed),
                        res.mean_lc_tail_regret)
                  << where;
            // The run billing nothing differs only by the billing's
            // truth queries: exactly the fallbacks a scan counts. Only
            // machines with 2+ residents count one, hence slots >= 3.
            if (slots >= 3) {
              ClusterConfig unbilled = cfg;
              unbilled.regret_sample = 0;
              CostModelPolicy quiet{"oracle", truth};
              EXPECT_EQ(res.pairwise_fallbacks -
                            simulate(unbilled, truth, trace, quiet)
                                .pairwise_fallbacks,
                        billing.fallbacks())
                  << where;
            }
          }
          {
            OnlineRefinedPolicy indexed{"online", model(mi), sigs};
            OnlineRefinedPolicy scanned{"online", model(mi), sigs};
            ScanPolicy scan{scanned};
            expect_same_result(simulate(cfg, truth, trace, indexed),
                               simulate(cfg, truth, trace, scan),
                               truth.workloads, where + " online-refined");
          }
          // A truth-priced scan costs a virtual admission_delta per
          // open machine, so two mixes (none, all) below 1000 machines
          // cover the truth pricer, lc and not.
          if (machines < 1000 && (mix == 0 || mix == 7)) {
            // The policy prices on the simulator's own truth, so its
            // queries count into pairwise_fallbacks too.
            harness::MatrixTruth ti{truth}, ts{truth};
            GroupTruthPolicy indexed{"group", ti}, scanned{"group", ts};
            ScanPolicy scan{scanned};
            expect_same_result(simulate(cfg, ti, trace, indexed),
                               simulate(cfg, ts, trace, scan),
                               truth.workloads, where + " group-truth");
          }
          // The SLO-aware pricer is not affine, so both sides scan; the
          // 1000-machine rung would only repeat the smaller ones.
          if (lc && machines < 1000) {
            SloAwarePolicy indexed{"slo", truth, truth};
            SloAwarePolicy scanned{"slo", truth, truth};
            ScanPolicy scan{scanned};
            const ClusterResult a = simulate(cfg, truth, trace, indexed);
            const ClusterResult b = simulate(cfg, truth, trace, scan);
            expect_same_result(a, b, truth.workloads, where + " slo-aware");
            EXPECT_EQ(a.mean_lc_tail_regret, b.mean_lc_tail_regret) << where;
            EXPECT_EQ(indexed.forced_violations(), scanned.forced_violations())
                << where;
          }
        }
      }
    }
  }
}

/// Forwards only InterferenceTruth's pure virtuals plus admission_delta,
/// the way a timing decorator wraps a truth: pair_entry and
/// tail_slowdown fall back to the defaults over slowdown().
class ForwardingTruth final : public harness::InterferenceTruth {
 public:
  explicit ForwardingTruth(harness::InterferenceTruth& inner) : inner_(inner) {}
  std::size_t size() const override { return inner_.size(); }
  double slowdown(std::size_t type,
                  const std::vector<std::size_t>& others) override {
    return inner_.slowdown(type, others);
  }
  const harness::CorunMatrix& pairwise() override { return inner_.pairwise(); }
  double admission_delta(std::size_t job_type, double job_work,
                         const std::vector<std::size_t>& residents,
                         const std::vector<double>& remaining) override {
    return inner_.admission_delta(job_type, job_work, residents, remaining);
  }

 private:
  harness::InterferenceTruth& inner_;
};

// The index reads a truth's slope through admission_delta, the one
// pricing call a decorator forwards. A slope read from slowdown() would
// be clamped at 0 on the sub-1 matrix's entries, walk those classes the
// wrong way, and pick and bill differently from the undecorated scan.
TEST(CandidateIndex, DecoratedTruthPricesLikeTheUndecoratedScan) {
  const harness::CorunMatrix sub1 = exactness_matrices()[1];
  for (const std::size_t slots : {2u, 3u}) {
    FleetTraceOptions topt;
    topt.jobs = 1500;
    topt.seed = 77 + slots;
    topt.work = WorkModel::Pareto;
    topt.mean_interarrival = topt.mean_work / (1.1 * 64.0 * slots);
    const auto trace = fleet_trace(sub1.size(), topt);
    ClusterConfig cfg;
    cfg.machines = 64;
    cfg.slots = slots;
    harness::MatrixTruth inner{sub1}, plain{sub1};
    ForwardingTruth decorated{inner};
    GroupTruthPolicy on_decorated{"group", decorated}, on_plain{"group", plain};
    ScanPolicy scan{on_plain};
    const ClusterResult a = simulate(cfg, decorated, trace, on_decorated);
    const ClusterResult b = simulate(cfg, plain, trace, scan);
    const std::string where = "slots " + std::to_string(slots);
    EXPECT_EQ(a.log.str(sub1.workloads), b.log.str(sub1.workloads)) << where;
    EXPECT_EQ(a.mean_decision_regret, b.mean_decision_regret) << where;
    EXPECT_EQ(inner.fallbacks(), b.pairwise_fallbacks) << where;
  }
}

}  // namespace
}  // namespace coperf::cluster

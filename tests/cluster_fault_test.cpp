// Fault-injection and graceful-degradation tests: the fault schedule
// generator, fault-free byte-identity against the reference loop,
// deterministic fault replay, retry/backoff and work-loss accounting,
// preemptive migration ordering, admission-control shed billing, and
// audit-log goldens of the protected config.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster_fixtures.hpp"
#include "cluster_reference.hpp"
#include "harness/matrix.hpp"

namespace coperf::cluster {
namespace {

// Neutral x neutral co-runs at 1.00x in synthetic_truth, so the
// hand-computed scenarios below stay in solo-speed arithmetic.
constexpr std::size_t kNeutral = 2;

std::vector<JobSpec> neutral_jobs(
    const std::vector<std::pair<double, double>>& arrival_work,
    unsigned priority = 0) {
  std::vector<JobSpec> trace;
  for (std::size_t i = 0; i < arrival_work.size(); ++i) {
    JobSpec j;
    j.id = i;
    j.type = kNeutral;
    j.arrival = arrival_work[i].first;
    j.work = arrival_work[i].second;
    j.priority = priority;
    trace.push_back(j);
  }
  return trace;
}

// --- fault schedule generator ---------------------------------------

TEST(FaultSchedule, DeterministicSortedAlternating) {
  FaultScheduleOptions opt;
  opt.seed = 42;
  opt.horizon = 2000.0;
  opt.mtbf = 100.0;
  opt.mttr = 10.0;
  const auto a = fault_schedule(8, opt);
  const auto b = fault_schedule(8, opt);
  EXPECT_EQ(a, b) << "same seed must yield an identical schedule";
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size() % 2, 0u) << "every Down needs a matching Up";

  double prev = 0.0;
  std::vector<int> down(8, 0);
  for (const FaultEvent& f : a) {
    EXPECT_GE(f.time, prev);
    prev = f.time;
    ASSERT_LT(f.machine, 8u);
    if (f.kind == FaultEvent::Kind::Down) {
      EXPECT_EQ(down[f.machine], 0) << "double Down on machine " << f.machine;
      down[f.machine] = 1;
    } else {
      EXPECT_EQ(down[f.machine], 1) << "Up without Down on " << f.machine;
      down[f.machine] = 0;
    }
  }
  for (const int d : down) EXPECT_EQ(d, 0);
}

TEST(FaultSchedule, MachineStreamsInvariantUnderFleetSize) {
  FaultScheduleOptions opt;
  opt.seed = 7;
  opt.horizon = 1500.0;
  const auto small = fault_schedule(2, opt);
  const auto large = fault_schedule(16, opt);
  std::vector<FaultEvent> filtered;
  for (const FaultEvent& f : large)
    if (f.machine < 2) filtered.push_back(f);
  EXPECT_EQ(small, filtered)
      << "machine k's schedule must not depend on the fleet size";
}

TEST(FaultSchedule, RejectsBadOptions) {
  FaultScheduleOptions opt;
  opt.mtbf = 0.0;
  EXPECT_THROW(fault_schedule(2, opt), std::invalid_argument);
  opt = {};
  opt.horizon = -1.0;
  EXPECT_THROW(fault_schedule(2, opt), std::invalid_argument);
}

// --- fault-free identity and config validation ----------------------

// With no faults, no migration, and no admission control, the fleet
// engine must stay byte-identical to the reference specification.
TEST(FaultFree, ByteIdenticalToReference) {
  const auto truth = synthetic_truth();
  TraceOptions topt;
  topt.jobs = 400;
  topt.seed = 3;
  topt.mean_interarrival = 0.8;
  const auto trace = synthetic_trace(truth.size(), topt);
  const ClusterConfig cfg{3, 2};

  CostModelPolicy pref{"oracle", truth};
  const ClusterResult ref = simulate_reference(cfg, truth, trace, pref);
  CostModelPolicy pfleet{"oracle", truth};
  const ClusterResult fleet = simulate(cfg, truth, trace, pfleet);
  EXPECT_EQ(ref.log.str(truth.workloads), fleet.log.str(truth.workloads));
  EXPECT_NEAR(ref.mean_decision_regret, fleet.mean_decision_regret, 1e-9);
  EXPECT_EQ(fleet.failures, 0u);
  EXPECT_EQ(fleet.shed_jobs, 0u);
  EXPECT_EQ(fleet.completed_jobs, trace.size());
}

TEST(FaultFree, ReferenceRejectsFaultConfigs) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs({{0.0, 1.0}});
  CostModelPolicy p{"oracle", truth};

  ClusterConfig cfg{2, 2};
  cfg.faults = {{1.0, 0, FaultEvent::Kind::Down},
                {2.0, 0, FaultEvent::Kind::Up}};
  EXPECT_THROW(simulate_reference(cfg, truth, trace, p),
               std::invalid_argument);
  cfg = ClusterConfig{2, 2};
  cfg.migration.preempt = true;
  EXPECT_THROW(simulate_reference(cfg, truth, trace, p),
               std::invalid_argument);
  cfg = ClusterConfig{2, 2};
  cfg.admission.queue_limit = 4;
  EXPECT_THROW(simulate_reference(cfg, truth, trace, p),
               std::invalid_argument);
}

TEST(FaultFree, EngineValidatesFaultSchedules) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs({{0.0, 1.0}});
  CostModelPolicy p{"oracle", truth};

  ClusterConfig cfg{2, 2};
  cfg.faults = {{1.0, 5, FaultEvent::Kind::Down}};  // machine out of range
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::invalid_argument);
  cfg.faults = {{2.0, 0, FaultEvent::Kind::Down},
                {1.0, 0, FaultEvent::Kind::Up}};  // unsorted
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::invalid_argument);
  cfg.faults = {{1.0, 0, FaultEvent::Kind::Up}};  // Up without Down
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::invalid_argument);
  cfg.faults.clear();
  cfg.retry.checkpoint = 1.5;
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::invalid_argument);
  cfg.retry.checkpoint = -0.5;
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::invalid_argument);
  cfg.retry = RetryConfig{};
  cfg.retry.backoff = -1.0;
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::invalid_argument);
  cfg.retry = RetryConfig{};
  cfg.retry.backoff_factor = 0.5;
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::invalid_argument);
  cfg.retry = RetryConfig{};
  cfg.admission.util_limit = -0.1;
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::invalid_argument);
  cfg.admission.util_limit = 1.5;
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::invalid_argument);
  cfg.admission = AdmissionConfig{};
  cfg.admission.defer_delay = -1.0;
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::invalid_argument);
  // Each input above was the only bad field: the defaults are valid.
  cfg.admission = AdmissionConfig{};
  EXPECT_NO_THROW(simulate(cfg, truth, trace, p));
}

// A policy bug the engine must catch: choosing a failed machine. Its
// slots are free, but it is out of the open set and reports none.
TEST(FaultFree, EngineRejectsPlacementOnADownMachine) {
  class PicksMachineZero final : public PlacementPolicy {
   public:
    std::string name() const override { return "machine-0"; }
    using PlacementPolicy::place;
    std::size_t place(const JobSpec&, const ClusterView& cluster) override {
      free_slots_seen = cluster.free_slots(0);
      return 0;
    }
    std::size_t free_slots_seen = 99;
  };
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs({{1.0, 1.0}});
  ClusterConfig cfg;
  cfg.machines = 2;
  cfg.faults = {{0.5, 0, FaultEvent::Kind::Down},
                {5.0, 0, FaultEvent::Kind::Up}};
  PicksMachineZero p;
  EXPECT_THROW(simulate(cfg, truth, trace, p), std::logic_error);
  EXPECT_EQ(p.free_slots_seen, 0u);
}

// --- deterministic fault replay -------------------------------------

TEST(FaultReplay, SameSeedSameAuditLog) {
  const auto truth = synthetic_truth();
  FleetTraceOptions fopt;
  fopt.jobs = 1200;
  fopt.seed = 17;
  fopt.mean_interarrival = 0.5;
  fopt.class_shares = {3.0, 1.0};
  const auto trace = fleet_trace(truth.size(), fopt);

  ClusterConfig cfg{4, 2};
  FaultScheduleOptions sched;
  sched.seed = 99;
  sched.horizon = 400.0;
  sched.mtbf = 60.0;
  sched.mttr = 15.0;
  cfg.faults = fault_schedule(cfg.machines, sched);
  cfg.migration.preempt = true;
  cfg.admission.queue_limit = 40;

  const auto run = [&] {
    CostModelPolicy p{"oracle", truth};
    return simulate(cfg, truth, trace, p);
  };
  const ClusterResult a = run();
  const ClusterResult b = run();
  const std::string log = a.log.str(truth.workloads);
  EXPECT_EQ(log, b.log.str(truth.workloads));
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.shed_work, b.shed_work);
  EXPECT_EQ(a.mean_stretch, b.mean_stretch);

  EXPECT_GT(a.failures, 0u);
  EXPECT_GT(a.recoveries, 0u);
  EXPECT_GT(a.fault_kills, 0u);
  EXPECT_NE(log.find(" fail machine="), std::string::npos);
  EXPECT_NE(log.find(" recover machine="), std::string::npos);
  EXPECT_NE(log.find(" evict job="), std::string::npos);

  // Killed-and-completed jobs still satisfy the solo-normalized
  // invariants: lost work and backoff only stretch them.
  for (const JobOutcome& o : a.outcomes) {
    if (!o.completed()) continue;
    EXPECT_GE(o.stretch(), 1.0 - 1e-12);
    EXPECT_GE(o.corun_slowdown(), 1.0 - 1e-12);
  }
}

// --- retry/backoff and the work-loss model --------------------------

// One machine, one solo job, one outage: finish times are exact
// solo-speed arithmetic, so the work-loss model is pinned numerically.
// Down at t=4 kills the job (4 of 10 units executed); backoff 1 makes
// it ready at t=5 but the machine only recovers at t=6.
TEST(Retry, WorkLossModelRestartFromZero) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {6.0, 0, FaultEvent::Kind::Up}};
  cfg.retry.backoff = 1.0;
  cfg.retry.checkpoint = 0.0;  // the whole attempt is lost
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);

  ASSERT_TRUE(res.outcomes[0].completed());
  EXPECT_EQ(res.outcomes[0].retries, 1u);
  EXPECT_NEAR(res.outcomes[0].finish, 16.0, 1e-9);  // 6 + full 10 again
  EXPECT_NEAR(res.outcomes[0].start, 0.0, 1e-9);    // first placement
  EXPECT_NEAR(res.outcomes[0].stretch(), 1.6, 1e-9);
  EXPECT_EQ(res.failures, 1u);
  EXPECT_EQ(res.recoveries, 1u);
  EXPECT_EQ(res.fault_kills, 1u);
}

TEST(Retry, WorkLossModelPerfectCheckpoint) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {6.0, 0, FaultEvent::Kind::Up}};
  cfg.retry.backoff = 1.0;
  cfg.retry.checkpoint = 1.0;  // only in-flight time is lost
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);

  ASSERT_TRUE(res.outcomes[0].completed());
  EXPECT_NEAR(res.outcomes[0].finish, 12.0, 1e-9);  // 6 + remaining 6
  EXPECT_NEAR(res.outcomes[0].stretch(), 1.2, 1e-9);
}

TEST(Retry, BackoffDelaysPastRecovery) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {6.0, 0, FaultEvent::Kind::Up}};
  cfg.retry.backoff = 5.0;  // ready at t=9, after the t=6 recovery
  cfg.retry.checkpoint = 1.0;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);
  EXPECT_NEAR(res.outcomes[0].finish, 15.0, 1e-9);  // 9 + remaining 6
}

TEST(Retry, ExhaustedRetriesShed) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {6.0, 0, FaultEvent::Kind::Up}};
  cfg.retry.max_retries = 0;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);

  EXPECT_FALSE(res.outcomes[0].completed());
  EXPECT_TRUE(res.outcomes[0].shed);
  EXPECT_EQ(res.shed_jobs, 1u);
  EXPECT_NEAR(res.shed_work, 10.0, 1e-9);  // restart-from-zero loss
  EXPECT_EQ(res.completed_jobs, 0u);
  EXPECT_NE(res.log.str(truth.workloads).find(" shed job=0"),
            std::string::npos);
}

// --- preemptive migration -------------------------------------------

TEST(Migration, HighPriorityPreemptsLowestClass) {
  const auto truth = synthetic_truth();
  // Two best-effort residents fill the only machine; a class-1 job
  // arrives at t=1.
  std::vector<JobSpec> trace = neutral_jobs({{0.0, 100.0}, {0.0, 100.0}});
  JobSpec hp;
  hp.id = 2;
  hp.type = kNeutral;
  hp.arrival = 1.0;
  hp.work = 10.0;
  hp.priority = 1;
  trace.push_back(hp);

  ClusterConfig cfg{1, 2};
  cfg.migration.preempt = true;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);

  EXPECT_EQ(res.migrations, 1u);
  EXPECT_EQ(res.outcomes[0].evictions, 1u);  // lowest slot is the victim
  EXPECT_EQ(res.outcomes[1].evictions, 0u);
  EXPECT_NEAR(res.outcomes[2].start, 1.0, 1e-9)
      << "the class-1 job must start at arrival, not after a drain";
  EXPECT_NEAR(res.outcomes[2].finish, 11.0, 1e-9);
  // The victim loses its 1 unit of progress (restart-from-zero) and
  // re-places when the class-1 job finishes.
  ASSERT_TRUE(res.outcomes[0].completed());
  EXPECT_NEAR(res.outcomes[0].finish, 111.0, 1e-9);
  EXPECT_EQ(res.outcomes[0].retries, 0u) << "eviction is not a failure kill";
  EXPECT_NE(res.log.str(truth.workloads).find(" evict job=0"),
            std::string::npos);
}

TEST(Migration, NeverEvictsEqualOrHigherClass) {
  const auto truth = synthetic_truth();
  std::vector<JobSpec> trace =
      neutral_jobs({{0.0, 100.0}, {0.0, 100.0}}, /*priority=*/1);
  JobSpec hp;
  hp.id = 2;
  hp.type = kNeutral;
  hp.arrival = 1.0;
  hp.work = 10.0;
  hp.priority = 1;
  trace.push_back(hp);

  ClusterConfig cfg{1, 2};
  cfg.migration.preempt = true;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);
  EXPECT_EQ(res.migrations, 0u);
  EXPECT_NEAR(res.outcomes[2].start, 100.0, 1e-9)
      << "equal-class residents must not be preempted";
}

// Places every job on the lowest open machine, so hand-built tests
// decide exactly which slot each job lands in.
class FirstOpen final : public PlacementPolicy {
 public:
  std::string name() const override { return "first-open"; }
  using PlacementPolicy::place;
  std::size_t place(const JobSpec&, const ClusterView& cluster) override {
    return cluster.kth_open(0);
  }
};

/// Neutral jobs, one per (arrival, priority), long enough that none
/// finishes inside the hand-built scenarios below.
std::vector<JobSpec> classed_jobs(
    const std::vector<std::pair<double, unsigned>>& arrival_priority) {
  std::vector<JobSpec> trace;
  for (const auto& [arrival, priority] : arrival_priority) {
    JobSpec j;
    j.id = trace.size();
    j.type = kNeutral;
    j.arrival = arrival;
    j.work = 1000.0;
    j.priority = priority;
    trace.push_back(j);
  }
  return trace;
}

/// (time, job, machine) of an Evict event.
using Evict = std::tuple<double, std::size_t, std::size_t>;

/// Every Evict event in the log, in order.
std::vector<Evict> evictions(const ClusterResult& res) {
  std::vector<Evict> out;
  for (const TraceEvent& e : res.log.events)
    if (e.kind == TraceEvent::Kind::Evict)
      out.emplace_back(e.time, e.job, e.machine);
  return out;
}

// 3-slot machines with mixed classes: the victim is the lowest class,
// then the lowest machine hosting it, then that machine's first slot
// holding it -- here machine 0 = [p1, p0, p0], machine 1 = [p0, p2, p2]
// evicts machine 0's slot 1 (job 1), not its class-1 slot 0 nor
// machine 1's class-0 slot 0.
TEST(Migration, VictimIsFirstSlotOfLowestClassOnLowestMachine) {
  const auto truth = synthetic_truth();
  const auto trace = classed_jobs(
      {{0.0, 1}, {0.0, 0}, {0.0, 0}, {0.0, 0}, {0.0, 2}, {0.0, 2}, {1.0, 3}});
  ClusterConfig cfg;
  cfg.machines = 2;
  cfg.slots = 3;
  cfg.migration.preempt = true;
  FirstOpen p;
  const ClusterResult res = simulate(cfg, truth, trace, p);
  EXPECT_EQ(evictions(res), (std::vector<Evict>{{1.0, 1, 0}}));
  EXPECT_EQ(res.outcomes[6].machine, 0u);
  EXPECT_NEAR(res.outcomes[6].start, 1.0, 1e-9);

  // With class 0 only on the higher machine, the lower machine's
  // class-1 residents are passed over: [p1, p2, p1], [p2, p1, p0].
  const auto trace2 = classed_jobs(
      {{0.0, 1}, {0.0, 2}, {0.0, 1}, {0.0, 2}, {0.0, 1}, {0.0, 0}, {1.0, 3}});
  FirstOpen p2;
  const ClusterResult res2 = simulate(cfg, truth, trace2, p2);
  EXPECT_EQ(evictions(res2), (std::vector<Evict>{{1.0, 5, 1}}));
}

// The victim index follows every resident-set change: a class-0 job
// killed by a machine Down is gone from it (the next victim is on the
// surviving machine), and the recovered machine rejoins it once a new
// class-0 job is placed there.
TEST(Migration, VictimIndexFollowsFaultsAndRecovery) {
  const auto truth = synthetic_truth();
  // t=0: machine 0 = [p0 j0, p2 j1, p2 j2], machine 1 = [p1 j3, p0 j4,
  // p1 j5]. t=1: machine 0 fails (its jobs are shed: no retries).
  // t=2: class-2 j6 finds the fleet full and must evict j4 from
  // machine 1. t=50: machine 0 recovers and takes the waiting j4.
  // t=51: j7, j8 fill it. t=52: class-1 j9 must evict j4 again, now
  // from machine 0 -- the only class-0 resident left.
  const auto trace =
      classed_jobs({{0.0, 0}, {0.0, 2}, {0.0, 2}, {0.0, 1}, {0.0, 0},
                    {0.0, 1}, {2.0, 2}, {51.0, 2}, {51.0, 2}, {52.0, 1}});
  ClusterConfig cfg;
  cfg.machines = 2;
  cfg.slots = 3;
  cfg.faults = {{1.0, 0, FaultEvent::Kind::Down},
                {50.0, 0, FaultEvent::Kind::Up}};
  cfg.retry.max_retries = 0;
  cfg.migration.preempt = true;
  FirstOpen p;
  const ClusterResult res = simulate(cfg, truth, trace, p);

  EXPECT_EQ(evictions(res), (std::vector<Evict>{{2.0, 4, 1}, {52.0, 4, 0}}));
  EXPECT_EQ(res.migrations, 2u);
  EXPECT_TRUE(res.outcomes[0].shed) << "the fault-killed class-0 job";
  EXPECT_EQ(res.outcomes[0].evictions, 0u);
  EXPECT_EQ(res.outcomes[4].evictions, 2u);
  EXPECT_NEAR(res.outcomes[6].start, 2.0, 1e-9);
  EXPECT_NEAR(res.outcomes[9].start, 52.0, 1e-9);
  EXPECT_EQ(res.outcomes[9].machine, 0u);
}

// --- admission control ----------------------------------------------

TEST(Admission, ShedBillingConservesWork) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs(
      {{0.0, 50.0}, {0.1, 50.0}, {0.2, 50.0}, {0.3, 50.0}});
  ClusterConfig cfg{1, 2};
  cfg.admission.queue_limit = 1;  // one waiter is already overload
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);

  // Jobs 0/1 run, job 2 waits, job 3 arrives over the limit and sheds.
  EXPECT_EQ(res.shed_jobs, 1u);
  EXPECT_NEAR(res.shed_work, 50.0, 1e-9);
  EXPECT_TRUE(res.outcomes[3].shed);
  EXPECT_EQ(res.completed_jobs, 3u);
  ASSERT_EQ(res.class_stats.size(), 1u);
  const ClassStats& cs = res.class_stats[0];
  EXPECT_EQ(cs.jobs, 4u);
  EXPECT_EQ(cs.shed, 1u);
  EXPECT_NEAR(cs.work_arrived, 200.0, 1e-9);
  EXPECT_NEAR(cs.work_completed, 150.0, 1e-9);
  // Billing identity: every arrived unit either completed or was shed.
  EXPECT_NEAR(cs.work_arrived, cs.work_completed + res.shed_work, 1e-9);
  EXPECT_NEAR(cs.goodput * res.makespan, cs.work_completed, 1e-9);
  EXPECT_NE(res.log.str(truth.workloads).find(" shed job=3"),
            std::string::npos);
}

TEST(Admission, HighClassesAreNeverShed) {
  const auto truth = synthetic_truth();
  std::vector<JobSpec> trace = neutral_jobs(
      {{0.0, 50.0}, {0.1, 50.0}, {0.2, 50.0}});
  JobSpec hp;
  hp.id = 3;
  hp.type = kNeutral;
  hp.arrival = 0.3;
  hp.work = 50.0;
  hp.priority = 1;
  trace.push_back(hp);

  ClusterConfig cfg{1, 2};
  cfg.admission.queue_limit = 1;
  cfg.admission.shed_below = 1;  // only class 0 is sheddable
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);
  EXPECT_FALSE(res.outcomes[3].shed);
  EXPECT_TRUE(res.outcomes[3].completed());
  ASSERT_EQ(res.class_stats.size(), 2u);
  EXPECT_EQ(res.class_stats[1].shed, 0u);
}

TEST(Admission, DeferThenShedUnderPersistentOverload) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs(
      {{0.0, 50.0}, {0.1, 50.0}, {0.2, 50.0}, {0.3, 50.0}});
  ClusterConfig cfg{1, 2};
  cfg.admission.queue_limit = 1;
  cfg.admission.defer_delay = 10.0;
  cfg.admission.max_defers = 1;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);

  // Job 3 defers once (until t=10.3, still overloaded: job 2 waits
  // until the first completion at t=50) and then sheds.
  EXPECT_EQ(res.outcomes[3].defers, 1u);
  EXPECT_TRUE(res.outcomes[3].shed);
  const std::string log = res.log.str(truth.workloads);
  EXPECT_NE(log.find(" defer job=3"), std::string::npos);
  EXPECT_NE(log.find(" shed job=3"), std::string::npos);
}

TEST(Admission, DeferredJobAdmittedOnceLoadClears) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs(
      {{0.0, 10.0}, {0.1, 10.0}, {0.2, 10.0}, {0.3, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.admission.queue_limit = 1;
  cfg.admission.defer_delay = 25.0;  // re-enters at t=25.3: queue empty
  cfg.admission.max_defers = 3;
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);
  EXPECT_EQ(res.outcomes[3].defers, 1u);
  EXPECT_FALSE(res.outcomes[3].shed);
  ASSERT_TRUE(res.outcomes[3].completed());
  EXPECT_EQ(res.shed_jobs, 0u);
}

// --- graceful degradation end to end --------------------------------

// The acceptance-shaped comparison at test scale: under overload plus
// machine churn, admission control + migration must buy the
// high-priority class strictly more goodput and less stretch than the
// no-shed baseline.
TEST(Degradation, ProtectionLiftsHighPriorityGoodput) {
  const auto truth = synthetic_truth();
  FleetTraceOptions fopt;
  fopt.jobs = 2000;
  fopt.seed = 21;
  fopt.mean_interarrival = 0.45;  // well past the fleet's capacity
  fopt.class_shares = {3.0, 1.0};
  const auto trace = fleet_trace(truth.size(), fopt);

  FaultScheduleOptions sched;
  sched.seed = 13;
  sched.horizon = 500.0;
  sched.mtbf = 120.0;
  sched.mttr = 30.0;

  ClusterConfig base{6, 2};
  base.faults = fault_schedule(base.machines, sched);

  ClusterConfig prot = base;
  prot.migration.preempt = true;
  prot.admission.queue_limit = 30;
  prot.admission.shed_below = 1;

  CostModelPolicy pb{"oracle", truth};
  const ClusterResult rb = simulate(base, truth, trace, pb);
  CostModelPolicy pp{"oracle", truth};
  const ClusterResult rp = simulate(prot, truth, trace, pp);

  ASSERT_EQ(rb.class_stats.size(), 2u);
  ASSERT_EQ(rp.class_stats.size(), 2u);
  EXPECT_EQ(rb.migrations, 0u) << "baseline must not migrate";
  EXPECT_GT(rp.shed_jobs, 0u) << "protection must actually shed load";
  EXPECT_GT(rp.class_stats[1].goodput, rb.class_stats[1].goodput)
      << "admission control + migration must lift class-1 goodput";
  EXPECT_LT(rp.class_stats[1].mean_stretch, rb.class_stats[1].mean_stretch)
      << "class-1 jobs must also wait less";
  EXPECT_EQ(rp.class_stats[1].shed, 0u);
}

// --- protected-config goldens --------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Audit-log hashes of the protected config -- faults and retries,
// admission control that defers then sheds, and preemptive migration --
// over 8 seeds x slots {2, 3} x machines {7, 64}, random then oracle
// placement, with 3 or 4 priority classes at ~135% load. Any change to
// victim choice, requeue order or admission changes some log. On a
// mismatch the test prints the whole regenerated table; replace it only
// for an intended behaviour change.
TEST(ProtectedGolden, AuditLogHashesPinned) {
  constexpr std::uint64_t kGolden[] = {
      0xd014015aff049e5bull, 0x44e1ebdac295aa94ull,
      0xe03d4d70a112713ull, 0x7fc6a380742b3426ull,
      0xba7402ccf78d9366ull, 0x32b7537a4009425dull,
      0xcfe23fa23d88b8cbull, 0xfb078ef48749d7a4ull,
      0x2d068dca54bcd22aull, 0xdd00984e93e8432ull,
      0xd8bb013029a1b6c0ull, 0xa18488c6bd5ccd58ull,
      0x54dd977c4e340c44ull, 0xf188d0b2583a4704ull,
      0x2735c101f16ce6eeull, 0xe8c0a3b02afcc0bfull,
      0x24f73de0ebd46459ull, 0x804283e8a5de03a9ull,
      0xa9521e19f91814d7ull, 0x5cef5d384dfda071ull,
      0x8a8fba9eae439b8aull, 0x5b584d480fe75585ull,
      0x776e02a1488484ebull, 0xcdfcf7f06b7e6f29ull,
      0x766b0cdadb7be1afull, 0x5399c419fb4cd8aeull,
      0xb85f86c72b7cba7bull, 0x33487e4158e9ba68ull,
      0x76d6a0f919f52d3ull, 0x2acde3ab13728507ull,
      0xa1315d76adf3b12cull, 0x4e02c3dcde102b32ull,
      0xdd63679dcbbd11c8ull, 0x44c9f659f60f3ac0ull,
      0x97ecbb1e9eb784d9ull, 0x3e3816e5ad7138deull,
      0xe76cbd667a6dd08aull, 0xaf654676ce2947c8ull,
      0x65b3b08bb31a3fe6ull, 0xca274a92fa7020c5ull,
      0xe77383d0d2551e28ull, 0xad9f3b32868e898dull,
      0x59af409cf40d3fe7ull, 0x8567b6cdcd2455c7ull,
      0x1915a3131584cc20ull, 0xb12d5832ccabd827ull,
      0x585bd9e66d97c546ull, 0xea18418bae8e2fabull,
      0x3ebf460e6deff4b9ull, 0xd2d7a117c381ab6bull,
      0xa5d655f8e5d1afe6ull, 0x31a85dde16f34d3ull,
      0xece7db080087d5cull, 0xfb5bd9d29b2b7d80ull,
      0xfee1d12de61fdd14ull, 0x30754db85d6846c1ull,
      0xfe5cd127632b3874ull, 0x70cd97821b1e8966ull,
      0x1ecde6cc8cf06aebull, 0x4b04bea41ee0167full,
      0x2e972bd7389be377ull, 0x399768021e97a82full,
      0x118c099db32fe143ull, 0xc5307cb1caec7dadull,
  };
  const auto truth = synthetic_truth();
  std::vector<std::uint64_t> got;
  std::size_t migrations = 0, shed = 0, failures = 0, defers = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    for (const std::size_t slots : {2u, 3u})
      for (const std::size_t machines : {7u, 64u}) {
        FleetTraceOptions fopt;
        fopt.jobs = machines * 30;
        fopt.seed = seed;
        fopt.arrivals = ArrivalModel::Bursty;
        fopt.work = WorkModel::Pareto;
        fopt.class_shares = seed % 2 ? std::vector<double>{0.5, 0.25, 0.15, 0.1}
                                     : std::vector<double>{0.6, 0.3, 0.1};
        fopt.mean_interarrival =
            fopt.mean_work / (1.35 * static_cast<double>(machines * slots));
        const auto trace = fleet_trace(truth.size(), fopt);

        FaultScheduleOptions sched;
        sched.seed = seed + 100;
        sched.horizon = trace.back().arrival;
        sched.mtbf = sched.horizon / 3.0;
        sched.mttr = sched.mtbf / 20.0;

        ClusterConfig cfg;
        cfg.machines = machines;
        cfg.slots = slots;
        cfg.faults = fault_schedule(machines, sched);
        cfg.migration.preempt = true;
        cfg.admission.queue_limit = machines;
        cfg.admission.shed_below = 2;
        cfg.admission.defer_delay = 2.0;
        cfg.admission.max_defers = 2;

        RandomPolicy random{seed};
        CostModelPolicy oracle{"oracle", truth};
        for (PlacementPolicy* p : {static_cast<PlacementPolicy*>(&random),
                                   static_cast<PlacementPolicy*>(&oracle)}) {
          const ClusterResult res = simulate(cfg, truth, trace, *p);
          got.push_back(fnv1a(res.log.str(truth.workloads)));
          migrations += res.migrations;
          shed += res.shed_jobs;
          failures += res.failures;
          for (const TraceEvent& e : res.log.events)
            defers += e.kind == TraceEvent::Kind::Defer;
        }
      }
  // The grid must exercise every protected path it pins.
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_GT(failures, 0u);
  EXPECT_GT(defers, 0u);

  if (got != std::vector<std::uint64_t>(std::begin(kGolden),
                                        std::end(kGolden))) {
    std::ostringstream table;
    table << std::hex;
    for (std::size_t i = 0; i < got.size(); ++i)
      table << (i % 2 ? " " : "\n      ") << "0x" << got[i] << "ull,";
    ADD_FAILURE() << "protected-config audit logs changed; regenerated "
                     "table (random, oracle per row):"
                  << table.str();
  }
}

}  // namespace
}  // namespace coperf::cluster

// Fault-injection and graceful-degradation tests: the fault schedule
// generator, fault-free byte-identity against the reference loop,
// deterministic fault replay, retry/backoff and restart-from-zero
// accounting, preemptive migration ordering, admission-control shed
// billing, and audit-log goldens of the protected config.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
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
  // Each input above was the only bad field: the defaults are valid.
  cfg.faults.clear();
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
  EXPECT_GT(a.migrations, 0u);
  EXPECT_GT(a.shed_jobs, 0u);

  // Killed-and-completed jobs still satisfy the solo-normalized
  // invariants: lost work and backoff only stretch them.
  for (const JobOutcome& o : a.outcomes) {
    if (!o.completed()) continue;
    EXPECT_GE(o.stretch(), 1.0 - 1e-12);
    EXPECT_GE(o.corun_slowdown(), 1.0 - 1e-12);
  }

  // The engine logs a completion from the finishing resident's own
  // copy of the job's id, type, first-placement time and work. Through
  // kills, evictions and sheds, every Finish line must still name the
  // JobSpec and carry its outcome's corun_slowdown() bit for bit.
  std::unordered_map<std::size_t, std::size_t> index_of;
  for (std::size_t i = 0; i < trace.size(); ++i) index_of[trace[i].id] = i;
  std::size_t finishes = 0;
  for (const TraceEvent& e : a.log.events) {
    if (e.kind != TraceEvent::Kind::Finish) continue;
    ++finishes;
    const auto it = index_of.find(e.job);
    ASSERT_NE(it, index_of.end()) << "Finish for unknown job " << e.job;
    const JobSpec& spec = trace[it->second];
    const JobOutcome& o = a.outcomes[it->second];
    EXPECT_EQ(e.job, spec.id);
    EXPECT_EQ(e.type, spec.type);
    EXPECT_EQ(e.machine, o.machine);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.value),
              std::bit_cast<std::uint64_t>(o.corun_slowdown()))
        << "job " << e.job << ": Finish logs " << e.value
        << ", outcome reads " << o.corun_slowdown();
  }
  EXPECT_EQ(finishes, a.completed_jobs);
}

// --- retry/backoff and restart from zero ----------------------------

// One machine, one solo job, one outage: finish times are exact
// solo-speed arithmetic, so the restart rule is pinned numerically.
// Down at t=4 kills the job (4 of 10 units executed, all lost); the
// kRetryBackoff of 1 makes it ready at t=5, but the machine only
// recovers at t=6.
TEST(Retry, WorkLossModelRestartFromZero) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {6.0, 0, FaultEvent::Kind::Up}};
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

// The backoff holds a killed job past its machine's recovery: up
// again at t=4.5, but the job is ready only at t=5.
TEST(Retry, BackoffDelaysPastRecovery) {
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {4.5, 0, FaultEvent::Kind::Up}};
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);
  EXPECT_NEAR(res.outcomes[0].finish, 15.0, 1e-9);  // 5 + the full 10
}

// Four outages of the only machine: the first three kills requeue the
// job after backoffs of 1, 2 and 4, and the fourth kill sheds it.
TEST(Retry, ExhaustedRetriesShed) {
  static_assert(kMaxRetries == 3);
  static_assert(kRetryBackoff == 1.0 && kRetryBackoffFactor == 2.0);
  const auto truth = synthetic_truth();
  const auto trace = neutral_jobs({{0.0, 10.0}});
  ClusterConfig cfg{1, 2};
  cfg.faults = {{4.0, 0, FaultEvent::Kind::Down},
                {4.5, 0, FaultEvent::Kind::Up},  // ready at 4 + 1
                {8.0, 0, FaultEvent::Kind::Down},
                {8.5, 0, FaultEvent::Kind::Up},  // ready at 8 + 2
                {12.0, 0, FaultEvent::Kind::Down},
                {12.5, 0, FaultEvent::Kind::Up},  // ready at 12 + 4
                {20.0, 0, FaultEvent::Kind::Down},
                {21.0, 0, FaultEvent::Kind::Up}};
  CostModelPolicy p{"oracle", truth};
  const ClusterResult res = simulate(cfg, truth, trace, p);

  std::vector<double> placed, evicted;
  for (const TraceEvent& e : res.log.events) {
    if (e.kind == TraceEvent::Kind::Place) placed.push_back(e.time);
    if (e.kind == TraceEvent::Kind::Evict) evicted.push_back(e.time);
  }
  EXPECT_EQ(placed, (std::vector<double>{0.0, 5.0, 10.0, 16.0}));
  EXPECT_EQ(evicted, (std::vector<double>{4.0, 8.0, 12.0}));
  EXPECT_EQ(res.outcomes[0].retries, kMaxRetries);
  EXPECT_EQ(res.fault_kills, 4u);
  EXPECT_FALSE(res.outcomes[0].completed());
  EXPECT_TRUE(res.outcomes[0].shed);
  EXPECT_EQ(res.shed_jobs, 1u);
  EXPECT_NEAR(res.shed_work, 10.0, 1e-9);  // restart-from-zero loss
  EXPECT_EQ(res.completed_jobs, 0u);
  EXPECT_NE(res.log.str(truth.workloads).find("t=20.000000 shed job=0"),
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

// The victim index follows every resident-set change: class-0 jobs
// killed by a machine Down are gone from it (the next victim is on the
// surviving machine), and the recovered machine rejoins it once
// class-0 jobs are placed there again.
TEST(Migration, VictimIndexFollowsFaultsAndRecovery) {
  const auto truth = synthetic_truth();
  // t=0: machine 0 = [p0 j0, p0 j1, p0 j2], machine 1 = [p1 j3, p0 j4,
  // p1 j5]. t=1: machine 0 fails; its three jobs are killed (the Evict
  // events at t=1) and requeue at t=2, where, being class 0, they can
  // preempt nothing. t=2: class-2 j6 finds the fleet full and must
  // evict j4 from machine 1. t=50: machine 0 recovers and takes j0, j1
  // and j2 back. t=51: class-2 j7 must evict j0, now from machine 0.
  const auto trace =
      classed_jobs({{0.0, 0}, {0.0, 0}, {0.0, 0}, {0.0, 1}, {0.0, 0},
                    {0.0, 1}, {2.0, 2}, {51.0, 2}});
  ClusterConfig cfg;
  cfg.machines = 2;
  cfg.slots = 3;
  cfg.faults = {{1.0, 0, FaultEvent::Kind::Down},
                {50.0, 0, FaultEvent::Kind::Up}};
  cfg.migration.preempt = true;
  FirstOpen p;
  const ClusterResult res = simulate(cfg, truth, trace, p);

  EXPECT_EQ(evictions(res),
            (std::vector<Evict>{
                {1.0, 0, 0}, {1.0, 1, 0}, {1.0, 2, 0}, {2.0, 4, 1},
                {51.0, 0, 0}}));
  EXPECT_EQ(res.migrations, 2u);
  EXPECT_EQ(res.fault_kills, 3u);
  EXPECT_EQ(res.outcomes[0].retries, 1u);
  EXPECT_EQ(res.outcomes[0].evictions, 1u);
  EXPECT_EQ(res.outcomes[4].evictions, 1u);
  EXPECT_NEAR(res.outcomes[6].start, 2.0, 1e-9);
  EXPECT_EQ(res.outcomes[6].machine, 1u);
  EXPECT_NEAR(res.outcomes[7].start, 51.0, 1e-9);
  EXPECT_EQ(res.outcomes[7].machine, 0u);
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
// queue-limit admission control, and preemptive migration --
// over 8 seeds x slots {2, 3} x machines {7, 64}, random then oracle
// placement, with 3 or 4 priority classes at ~135% load. Any change to
// victim choice, requeue order or admission changes some log. On a
// mismatch the test prints the whole regenerated table; replace it only
// for an intended behaviour change.
TEST(ProtectedGolden, AuditLogHashesPinned) {
  constexpr std::uint64_t kGolden[] = {
      0x9df9f0116a1c1e6ull, 0x28ff6269b55c61b6ull,
      0x9f3439e510184fbcull, 0x8dbd5111f1ef71fdull,
      0xb20ca1d33747d6d9ull, 0x78ab76776ce8f445ull,
      0xedc85bd5427ac294ull, 0x9c0c8daf9061c5fdull,
      0x64aa100a7148a93ull, 0x75e95cde4b7d88f1ull,
      0x6ffaba7855335b2cull, 0x7065bb6d19cd43e7ull,
      0x63537f196b2adc13ull, 0x75b90bbd6c68e996ull,
      0x17004b81f34a8cbull, 0x1c7e3d8e7debcf4cull,
      0x375b25614ad838beull, 0x7ede8436057a7bfaull,
      0x39d6ffd80b447a3aull, 0xf8946940215287d3ull,
      0xfa444fd672235801ull, 0x89884ef219386ab7ull,
      0xc66cd06bc58567cdull, 0x5f2305091898135full,
      0xa20a25a235efa4c6ull, 0xcf464be412a079a2ull,
      0xf85893cbb6771d6cull, 0x33a6131675fe4e6ull,
      0xbad4bc5ecbbe1229ull, 0xce037d478e32a545ull,
      0x9612ba8605cbb215ull, 0xa9d76ef46feb1ab4ull,
      0xb30700b68aa2ae82ull, 0xa276889cad009cb9ull,
      0xa179572590afdb09ull, 0xedb4ecd3658cfd99ull,
      0x2fb66a238be179daull, 0xdcb6676f923c6545ull,
      0xf732a03b3b0cce37ull, 0xdd02df5598746609ull,
      0x50e342b9ddde32eaull, 0xd8dd8bc4d0123cf9ull,
      0x2934e98331b85ad4ull, 0x15e90ef2a14c9ae2ull,
      0x2f7da4aa5c461eaaull, 0xb2fa0db87979a8dfull,
      0x4096ef4cc834d054ull, 0x631942e38d02643dull,
      0x74ad077839a6a850ull, 0xdd0d29a23304bb3cull,
      0x313dae8a8ac71a58ull, 0x27339b0140c9b0adull,
      0xf83a5370420eb688ull, 0xec38071d7adfe33aull,
      0xd3aefac530e7ee56ull, 0xb73be2c4ee0604f5ull,
      0x590c8a319f268fcfull, 0x7037cf790275454eull,
      0x293415809a2d32e5ull, 0xa0c02e4eaae61623ull,
      0x699545285cb17233ull, 0xc5cdb308f1cf11c6ull,
      0x891f56c288502c8ull, 0x101052f19c8657full,
  };
  const auto truth = synthetic_truth();
  std::vector<std::uint64_t> got;
  std::size_t migrations = 0, shed = 0, failures = 0;
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

        RandomPolicy random{seed};
        CostModelPolicy oracle{"oracle", truth};
        for (PlacementPolicy* p : {static_cast<PlacementPolicy*>(&random),
                                   static_cast<PlacementPolicy*>(&oracle)}) {
          const ClusterResult res = simulate(cfg, truth, trace, *p);
          got.push_back(fnv1a(res.log.str(truth.workloads)));
          migrations += res.migrations;
          shed += res.shed_jobs;
          failures += res.failures;
        }
      }
  // The grid must exercise every protected path it pins.
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_GT(failures, 0u);

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

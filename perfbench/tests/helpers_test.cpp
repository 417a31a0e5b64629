// Tests for the benchmark's own helpers: the forwarding decorators,
// the traced sim replay, the self-time arithmetic and the tail rule.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <gtest/gtest.h>

#include <sstream>

#include "cluster/cluster.hpp"
#include "decorators.hpp"
#include "harness/runcache.hpp"
#include "replay.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;
namespace cluster = coperf::cluster;
namespace harness = coperf::harness;

Span span(std::uint32_t id, std::uint32_t parent, std::int64_t a,
          std::int64_t b, std::uint32_t thread = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  s.thread = thread;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  // Children overlap each other ([10,30] and [20,50] cover 40 ns) and
  // one runs past the parent's end (only [90,100] counts).
  const std::vector<Span> spans = {span(0, kNoParent, 0, 100),
                                   span(1, 0, 10, 30), span(2, 0, 20, 50, 1),
                                   span(3, 0, 90, 120, 2),
                                   span(4, 1, 12, 18)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);  // grandchildren count for their parent only
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTime, SequentialSpansOnOneThreadSumToTheRoot) {
  SpanBuffer buf;
  {
    const Scope root{buf, "root", Layer::Root};
    for (int i = 0; i < 3; ++i) {
      const Scope a{buf, "a", Layer::Sim};
      const Scope b{buf, "b", Layer::Wl};
    }
  }
  const std::vector<Span> all = buf.spans();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0].parent, kNoParent);
  EXPECT_EQ(all[1].parent, all[0].id);  // a under root
  EXPECT_EQ(all[2].parent, all[1].id);  // b under a
  std::int64_t sum = 0;
  for (const std::int64_t s : self_times(all)) {
    EXPECT_GE(s, 0);
    sum += s;
  }
  EXPECT_EQ(sum, all[0].duration_ns());
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_of(ramp(19)).beyond, 0u);  // no rung has ten beyond
  EXPECT_EQ(tail_of(ramp(19)).percentile, 0.0);

  const Tail t20 = tail_of(ramp(20));
  EXPECT_EQ(t20.percentile, 50.0);
  EXPECT_EQ(t20.value, 10.0);
  EXPECT_EQ(t20.beyond, 10u);

  const Tail t72 = tail_of(ramp(72));  // p90 would leave 7
  EXPECT_EQ(t72.percentile, 75.0);
  EXPECT_EQ(t72.value, 54.0);
  EXPECT_EQ(t72.beyond, 18u);

  const Tail t168 = tail_of(ramp(168));
  EXPECT_EQ(t168.percentile, 90.0);
  EXPECT_EQ(t168.value, 152.0);
  EXPECT_EQ(t168.beyond, 16u);

  const Tail t1000 = tail_of(ramp(1000));
  EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);
  EXPECT_EQ(t1000.beyond, 10u);

  const Tail t200k = tail_of(ramp(200'000));
  EXPECT_DOUBLE_EQ(t200k.percentile, 99.995);
  EXPECT_EQ(t200k.value, 199'990.0);
  EXPECT_EQ(t200k.beyond, 10u);
}

TEST(Tail, PercentileIsNearestRank) {
  EXPECT_EQ(percentile(ramp(10), 50.0), 5.0);
  EXPECT_EQ(percentile(ramp(10), 100.0), 10.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

harness::CorunMatrix hog_victim_matrix() {
  harness::CorunMatrix m;
  const std::size_t n = 4;
  for (std::size_t i = 0; i < n; ++i) {
    m.workloads.push_back("t" + std::to_string(i));
    m.solo_cycles.push_back(1000);
  }
  m.normalized.assign(n, std::vector<double>(n, 1.0));
  for (std::size_t f = 0; f < n; ++f)
    for (std::size_t b = 0; b < n; ++b)
      m.normalized[f][b] = 1.0 + 0.3 * static_cast<double>(f * b) / 3.0;
  return m;
}

TEST(Decorators, AuditLogIsByteIdenticalToTheUndecoratedRun) {
  const harness::CorunMatrix matrix = hog_victim_matrix();
  cluster::FleetTraceOptions topt;
  topt.jobs = 3000;
  topt.arrivals = cluster::ArrivalModel::Bursty;
  topt.work = cluster::WorkModel::Pareto;
  topt.class_shares = {0.75, 0.2, 0.05};
  topt.mean_interarrival = topt.mean_work / (1.35 * 16 * 2);
  const auto trace = cluster::fleet_trace(matrix.size(), topt);
  cluster::ClusterConfig cfg;
  cfg.machines = 16;
  cfg.slots = 2;
  cfg.regret_sample = 7;
  cluster::FaultScheduleOptions fopt;
  fopt.horizon = trace.back().arrival;
  fopt.mtbf = fopt.horizon / 3.0;
  fopt.mttr = fopt.mtbf / 20.0;
  cfg.faults = cluster::fault_schedule(cfg.machines, fopt);
  cfg.migration.preempt = true;
  cfg.admission.queue_limit = cfg.machines;

  const auto log_of = [&](bool decorated, int which) {
    harness::MatrixTruth truth{matrix};
    cluster::RandomPolicy random{3};
    cluster::CostModelPolicy cost{"cost", matrix};
    cluster::GroupTruthPolicy oracle{"oracle", truth};
    SpanBuffer spans;
    ClusterCounters counters;
    TracedTruth traced_truth{truth, spans, counters};
    cluster::GroupTruthPolicy traced_oracle{"oracle", traced_truth};
    cluster::PlacementPolicy* plain[] = {&random, &cost, &oracle};
    cluster::PlacementPolicy* inner[] = {&random, &cost, &traced_oracle};
    cluster::ClusterResult r;
    if (decorated) {
      TracedPolicy policy{*inner[which], spans, counters};
      r = cluster::simulate(cfg, traced_truth, trace, policy);
      EXPECT_GT(counters.decisions, 0u);
      EXPECT_GT(counters.truth_queries, 0u);
      if (which != 0) EXPECT_GT(counters.views, 0u);  // random prices none
    } else {
      r = cluster::simulate(cfg, truth, trace, *plain[which]);
    }
    EXPECT_GT(r.failures, 0u);
    return r.log.str(matrix.workloads);
  };
  for (int which = 0; which < 3; ++which)
    EXPECT_EQ(log_of(false, which), log_of(true, which)) << "policy " << which;
}

TEST(Replay, ReproducesThePlanCoreStats) {
  harness::RunCache& cache = harness::RunCache::instance();
  cache.set_enabled(true);
  cache.set_disk_dir("");
  cache.clear();
  harness::RunOptions opt;
  opt.size = coperf::wl::SizeClass::Tiny;
  opt.threads = 2;
  opt.bg_threads = 2;
  opt.seed = 5;
  harness::ExperimentPlan plan{opt};
  plan.add_solo({"blackscholes", 2, 1});
  plan.add_group(harness::GroupSpec::pair("blackscholes", "Stream", 2, 2));
  (void)plan.execute(2);

  SpanBuffer spans;
  const std::vector<ReplayedTrial> replayed =
      replay_all(plan.trials(), 2, spans, kNoParent);
  ASSERT_EQ(replayed.size(), plan.trials().size());
  for (std::size_t i = 0; i < replayed.size(); ++i)
    EXPECT_TRUE(replay_matches(plan.trials()[i], replayed[i])) << i;
  EXPECT_EQ(replayed[0].workloads.size(), 1u);
  EXPECT_EQ(replayed[1].workloads,
            (std::vector<std::string>{"blackscholes", "Stream"}));

  // One counter off is a divergence the check must see.
  ReplayedTrial off = replayed[0];
  off.member_stats[0].loads += 1;
  EXPECT_FALSE(replay_matches(plan.trials()[0], off));
}

}  // namespace

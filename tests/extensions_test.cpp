// Tests for the interference-aware pairwise co-scheduler
// (harness/scheduler.hpp): greedy vs. optimal pairings over a
// co-run matrix, and its input validation.
#include <gtest/gtest.h>

#include "harness/scheduler.hpp"
#include "util/rng.hpp"

namespace coperf::harness {
namespace {

CorunMatrix toy_matrix() {
  // 4 workloads: A,B harmless; C,D mutually destructive but fine with
  // A/B. Best pairing: (A,C),(B,D) or (A,D),(B,C); worst: (A,B),(C,D).
  CorunMatrix m;
  m.workloads = {"A", "B", "C", "D"};
  m.solo_cycles = {100, 100, 100, 100};
  m.normalized = {
      {1.0, 1.0, 1.1, 1.1},
      {1.0, 1.0, 1.1, 1.1},
      {1.2, 1.2, 1.9, 2.2},
      {1.2, 1.2, 2.4, 1.9},
  };
  return m;
}

TEST(Scheduler, PairCostIsSymmetricSum) {
  const auto m = toy_matrix();
  EXPECT_DOUBLE_EQ(pair_cost(m, 2, 3), 2.2 + 2.4);
  EXPECT_DOUBLE_EQ(pair_cost(m, 3, 2), 2.2 + 2.4);
  EXPECT_DOUBLE_EQ(pair_cost(m, 0, 1), 2.0);
}

TEST(Scheduler, GreedyAvoidsDestructivePair) {
  const auto m = toy_matrix();
  const auto s = schedule_greedy(m, {0, 1, 2, 3});
  ASSERT_EQ(s.pairs.size(), 2u);
  for (const auto& p : s.pairs)
    EXPECT_FALSE((p.a == 2 && p.b == 3) || (p.a == 3 && p.b == 2))
        << "greedy must not co-locate the two offenders";
  EXPECT_LT(s.worst_slowdown, 1.5);
  EXPECT_EQ(s.worst_class, PairClass::Harmony);
}

TEST(Scheduler, WorstBaselineIsWorse) {
  const auto m = toy_matrix();
  const auto st = scheduling_study(m, {0, 1, 2, 3});
  EXPECT_GT(st.worst.total_cost, st.greedy.total_cost);
  EXPECT_GT(st.improvement, 1.1);
  EXPECT_EQ(st.worst.worst_class, PairClass::BothVictim);
}

TEST(Scheduler, GreedyMatchesOptimalOnToyMatrix) {
  const auto m = toy_matrix();
  const auto greedy = schedule_greedy(m, {0, 1, 2, 3});
  const auto optimal = schedule_optimal(m, {0, 1, 2, 3});
  EXPECT_NEAR(greedy.total_cost, optimal.total_cost, 1e-12);
}

TEST(Scheduler, OptimalIsNeverWorseThanGreedy) {
  // Randomized matrices: exhaustive matching must lower-bound greedy.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    CorunMatrix m;
    const std::size_t n = 6;
    util::SplitMix64 rng{seed};
    m.workloads.resize(n, "w");
    m.solo_cycles.assign(n, 100);
    m.normalized.assign(n, std::vector<double>(n, 1.0));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        m.normalized[i][j] = 1.0 + rng.uniform();
    std::vector<std::size_t> jobs{0, 1, 2, 3, 4, 5};
    const auto greedy = schedule_greedy(m, jobs);
    const auto optimal = schedule_optimal(m, jobs);
    EXPECT_LE(optimal.total_cost, greedy.total_cost + 1e-12) << "seed " << seed;
    EXPECT_GE(optimal.total_cost, greedy.total_cost * 0.8)
        << "greedy should stay near-optimal (seed " << seed << ")";
  }
}

TEST(Scheduler, RejectsOddJobCounts) {
  const auto m = toy_matrix();
  EXPECT_THROW(schedule_greedy(m, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(schedule_optimal(m, {0}), std::invalid_argument);
}

TEST(Scheduler, RejectsOutOfRangeJobs) {
  const auto m = toy_matrix();
  EXPECT_THROW(schedule_greedy(m, {0, 9}), std::out_of_range);
}

}  // namespace
}  // namespace coperf::harness

// Tests for the experiment harness: solo/pair runners, classification,
// scalability math, reporters.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/classify.hpp"
#include "harness/matrix.hpp"
#include "harness/prefetch_study.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/scalability.hpp"
#include "harness/scheduler.hpp"

namespace coperf::harness {
namespace {

RunOptions tiny_opts(unsigned threads = 4) {
  RunOptions o;
  o.machine = sim::MachineConfig::scaled();
  o.size = wl::SizeClass::Tiny;
  o.threads = threads;
  o.sample_window = 50'000;
  return o;
}

TEST(Classify, ThresholdSemantics) {
  EXPECT_EQ(classify_pair(1.0, 1.0), PairClass::Harmony);
  EXPECT_EQ(classify_pair(1.49, 1.49), PairClass::Harmony);
  EXPECT_EQ(classify_pair(1.5, 1.0), PairClass::VictimOffender);
  EXPECT_EQ(classify_pair(1.0, 1.5), PairClass::VictimOffender);
  EXPECT_EQ(classify_pair(1.6, 1.9), PairClass::BothVictim);
}

TEST(Classify, VictimNaming) {
  EXPECT_EQ(victim_of("A", "B", 1.8, 1.1), "A");
  EXPECT_EQ(victim_of("A", "B", 1.1, 1.8), "B");
  EXPECT_EQ(victim_of("A", "B", 1.1, 1.2), "");
  EXPECT_EQ(victim_of("A", "B", 1.8, 1.8), "");
}

TEST(Classify, ToStringNames) {
  EXPECT_STREQ(to_string(PairClass::Harmony), "Harmony");
  EXPECT_STREQ(to_string(PairClass::VictimOffender), "Victim-Offender");
  EXPECT_STREQ(to_string(PairClass::BothVictim), "Both-Victim");
}

TEST(Scalability, ClassificationThresholds) {
  EXPECT_EQ(classify_scalability(1.0), ScalClass::Low);
  EXPECT_EQ(classify_scalability(2.49), ScalClass::Low);
  EXPECT_EQ(classify_scalability(2.5), ScalClass::Medium);
  EXPECT_EQ(classify_scalability(4.99), ScalClass::Medium);
  EXPECT_EQ(classify_scalability(5.0), ScalClass::High);
  EXPECT_EQ(classify_scalability(7.8), ScalClass::High);
}

TEST(Runner, SoloRunProducesSaneResult) {
  const RunResult r = run_solo("Stream", tiny_opts(2));
  EXPECT_EQ(r.workload, "Stream");
  EXPECT_EQ(r.threads, 2u);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.metrics.ipc, 0.0);
}

TEST(Runner, PairRunMeasuresBothSides) {
  const CorunResult r = run_pair("Bandit", "Stream", tiny_opts());
  EXPECT_EQ(r.fg.workload, "Bandit");
  EXPECT_EQ(r.bg_workload, "Stream");
  EXPECT_GT(r.fg.cycles, 0u);
  EXPECT_GT(r.bg_stats.instructions, 0u);
  EXPECT_GT(r.total_avg_bw_gbs, 0.0);
  // Total bandwidth should be at least each side's own share.
  EXPECT_GE(r.total_avg_bw_gbs + 0.5, r.fg.avg_bw_gbs);
  EXPECT_GE(r.total_avg_bw_gbs + 0.5, r.bg_avg_bw_gbs);
}

TEST(Runner, CorunSlowsBandwidthVictim) {
  const RunResult solo = run_solo("Bandit", tiny_opts());
  const CorunResult pair = run_pair("Bandit", "Stream", tiny_opts());
  EXPECT_GT(pair.fg.cycles, solo.cycles)
      << "a bandwidth victim must slow down next to STREAM";
}

TEST(Runner, FriendlyBackgroundBarelyHurts) {
  const RunResult solo = run_solo("Bandit", tiny_opts());
  const CorunResult pair = run_pair("Bandit", "swaptions", tiny_opts());
  const double slowdown = static_cast<double>(pair.fg.cycles) /
                          static_cast<double>(solo.cycles);
  EXPECT_LT(slowdown, 1.2) << "swaptions must be a harmless neighbour";
}

TEST(Runner, BgThreadPlacementRespected) {
  RunOptions o = tiny_opts(4);
  o.bg_threads = 4;
  const CorunResult r = run_pair("Stream", "Bandit", o);
  EXPECT_GT(r.bg_runs_completed + r.bg_stats.instructions, 0u);
  // Over-subscription must be rejected.
  o.threads = 6;
  EXPECT_THROW(run_pair("Stream", "Bandit", o), std::invalid_argument);
}

TEST(Runner, MedianOfThreeIsDeterministic) {
  const RunResult a = run_solo_median("Bandit", tiny_opts(), 3);
  const RunResult b = run_solo_median("Bandit", tiny_opts(), 3);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Runner, RejectsZeroReps) {
  EXPECT_THROW(run_solo_median("Bandit", tiny_opts(), 0),
               std::invalid_argument);
}

TEST(PrefetchStudy, StreamIsSensitiveBanditIsNot) {
  const auto stream = prefetch_sensitivity("Stream", tiny_opts());
  const auto bandit = prefetch_sensitivity("Bandit", tiny_opts());
  EXPECT_LT(stream.speedup_ratio, 0.95)
      << "STREAM must slow down without prefetchers";
  EXPECT_GT(bandit.speedup_ratio, 0.95)
      << "Bandit must be insensitive to prefetchers";
  EXPECT_LE(bandit.speedup_ratio, 1.1);
}

TEST(Matrix, SubsetSweepAndClasses) {
  MatrixOptions mo;
  mo.run = tiny_opts();
  mo.reps = 1;
  mo.subset = {"Bandit", "swaptions"};
  const CorunMatrix m = corun_matrix(mo);
  ASSERT_EQ(m.size(), 2u);
  // Diagonal and off-diagonal values are defined and >= ~1.
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_GT(m.at(i, j), 0.8) << i << "," << j;
  const auto counts = m.count_classes();
  EXPECT_EQ(counts.harmony + counts.victim_offender + counts.both_victim, 3u);
}

TEST(Matrix, AtRejectsOutOfRangeIndices) {
  CorunMatrix m;
  m.workloads = {"a", "b"};
  m.solo_cycles = {1, 1};
  m.normalized = {{1.0, 1.1}, {1.2, 1.0}};
  EXPECT_DOUBLE_EQ(m.at(1, 0), 1.2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(Scheduler, ValidatesJobLists) {
  CorunMatrix m;
  m.workloads = {"a", "b", "c", "d"};
  m.solo_cycles = {1, 1, 1, 1};
  m.normalized.assign(4, std::vector<double>(4, 1.0));
  const std::vector<std::size_t> ok = {0, 1, 2, 3};
  EXPECT_EQ(schedule_greedy(m, ok).pairs.size(), 2u);
  EXPECT_EQ(schedule_optimal(m, ok).pairs.size(), 2u);
  EXPECT_EQ(schedule_worst(m, ok).pairs.size(), 2u);
  // Odd-sized, out-of-range, and duplicate job lists are rejected with
  // clear errors instead of undefined behavior.
  const std::vector<std::size_t> odd = {0, 1, 2};
  const std::vector<std::size_t> oob = {0, 1, 2, 4};
  const std::vector<std::size_t> dup = {0, 1, 1, 2};
  for (auto* fn : {&schedule_greedy, &schedule_optimal, &schedule_worst}) {
    EXPECT_THROW((*fn)(m, odd), std::invalid_argument);
    EXPECT_THROW((*fn)(m, oob), std::out_of_range);
    EXPECT_THROW((*fn)(m, dup), std::invalid_argument);
  }
}

TEST(Report, TableFormatsAndCsv) {
  Table t{{"a", "b"}};
  t.add_row({"x", Table::fmt(1.2345, 2)});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,b\nx,1.23\n");
}

TEST(Report, HeatmapAndCsvCoverAllCells) {
  CorunMatrix m;
  m.workloads = {"A", "B"};
  m.solo_cycles = {100, 100};
  m.normalized = {{1.0, 1.5}, {2.0, 1.1}};
  std::ostringstream os;
  print_heatmap(os, m);
  EXPECT_NE(os.str().find("1.50"), std::string::npos);
  const std::string csv = matrix_to_csv(m);
  EXPECT_NE(csv.find("A,B,1.5000"), std::string::npos);
  EXPECT_NE(csv.find("B,A,2.0000"), std::string::npos);
}

}  // namespace
}  // namespace coperf::harness

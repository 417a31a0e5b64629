// coperf public API.
//
// A Session bundles a machine configuration and an input size class and
// exposes the paper's complete methodology:
//
//   coperf::Session s;                           // scaled machine, Small inputs
//   auto solo  = s.run_solo("G-PR");             // Section IV sole-run
//   auto pair  = s.run_pair("G-CC", "fotonik3d"); // Section V co-run
//   auto trio  = s.run_group(harness::GroupSpec{{ // N-way co-run group
//       {"G-CC", 2}, {"CIFAR", 2}, {"Stream", 4, {}, true}}});
//   auto scal  = s.scalability("ATIS");          // Fig. 2 sweep
//   auto pf    = s.prefetch_sensitivity("IRSmk"); // Fig. 4 experiment
//   auto matrix = s.corun_matrix();              // Fig. 5, all 625 pairs
//
// For experiment *sets*, build a plan instead of looping blocking
// calls: plan() collects specs (solos, groups, sweeps, matrices),
// dedupes the trials they expand to -- structurally and against the
// content-addressed run cache -- executes the residue in parallel,
// and returns results addressable by spec:
//
//   auto plan = s.plan();
//   harness::MatrixSpec fig5{{"G-PR", "CIFAR", "Stream"}, 3};
//   plan.add_matrix(fig5);
//   plan.add_scalability({"ATIS", 8});
//   auto results = plan.execute();
//   auto m = results.matrix(fig5);
//
// Every result is deterministic for a given seed; "three repeated
// runs" are three seeds with the median reported, like the paper.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "harness/classify.hpp"
#include "harness/group.hpp"
#include "harness/matrix.hpp"
#include "harness/plan.hpp"
#include "harness/prefetch_study.hpp"
#include "harness/runner.hpp"
#include "harness/scalability.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"
#include "wl/registry.hpp"
#include "wl/workload.hpp"

namespace coperf {

class Session {
 public:
  /// Defaults reproduce the paper's experiment configuration on the
  /// scaled machine (see DESIGN.md "Scaled-machine mode").
  explicit Session(sim::MachineConfig machine = sim::MachineConfig::scaled(),
                   wl::SizeClass size = wl::SizeClass::Small);

  /// Workload names, paper order (Fig. 5 axes). Excludes mini-benchmarks.
  std::vector<std::string> applications() const;
  /// Including Bandit and Stream.
  std::vector<std::string> all_workloads() const;

  harness::RunResult run_solo(std::string_view workload,
                              unsigned threads = 4) const;
  harness::CorunResult run_pair(std::string_view fg, std::string_view bg,
                                unsigned threads = 4) const;
  /// N workloads on disjoint core ranges (harness/group.hpp); pairs
  /// are the 2-member special case.
  harness::GroupResult run_group(const harness::GroupSpec& spec) const;

  /// An empty plan seeded with this session's options; add specs, then
  /// execute() once.
  harness::ExperimentPlan plan() const;

  harness::ScalabilityResult scalability(std::string_view workload,
                                         unsigned max_threads = 8) const;
  harness::PrefetchSensitivity prefetch_sensitivity(
      std::string_view workload, unsigned threads = 4) const;

  /// The full fg x bg sweep (625 pairs at default scope).
  harness::CorunMatrix corun_matrix(unsigned reps = 3,
                                    std::vector<std::string> subset = {}) const;

  /// Base RunOptions used by all calls (seed, sampling, machine, size).
  harness::RunOptions options() const { return base_; }
  void set_sample_window(sim::Cycle w) { base_.sample_window = w; }

  const sim::MachineConfig& machine() const { return base_.machine; }

  /// Process-wide metrics registry (counters/gauges/histograms kept by
  /// the harness, truth oracles, and cluster simulator). Enabled by
  /// default; snapshot with metrics().snapshot_json().
  static obs::Registry& metrics() { return obs::Registry::instance(); }
  /// Process-wide Chrome-trace recorder. Off by default; trace().start
  /// (path) records spans until trace().stop() writes the file -- load
  /// it in Perfetto or chrome://tracing.
  static obs::Trace& trace() { return obs::Trace::instance(); }

 private:
  harness::RunOptions base_;
};

}  // namespace coperf

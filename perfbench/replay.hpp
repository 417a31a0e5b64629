// Traced replay of plan trials through the sim and wl public APIs.
//
// The harness runs a trial inside ExperimentPlan::execute, where the
// benchmark cannot time its parts. The traced run therefore replays
// the same trials by calling wl::Registry::create and the sim::Machine
// API directly, in the order harness::run_group uses, with a span
// around each call. Each replayed trial must reproduce the plan's
// CoreStats bit for bit; replay_matches checks that against the
// RunCache entry the untraced execution stored under the trial key.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/plan.hpp"
#include "sim/stats.hpp"
#include "spans.hpp"

namespace perfbench {

/// What one replayed trial measured, per member and in total.
struct ReplayedTrial {
  std::vector<coperf::sim::CoreStats> member_stats;
  std::vector<coperf::sim::Cycle> member_cycles;
  std::vector<std::string> workloads;  ///< member workload names
  std::vector<double> create_ns;       ///< per member
  std::vector<std::size_t> footprint_bytes;  ///< per member
  double setup_ns = 0.0;  ///< Machine construction + every add_app
  double run_ns = 0.0;    ///< Machine::run
  double trial_ns = 0.0;  ///< the whole trial span
  std::uint64_t prefetch_fills = 0;   ///< over every cache of the machine
  std::uint64_t prefetch_useful = 0;
};

/// Replays one trial. `request` is the trial's index in its plan and
/// tags every span; `parent` is the span the trial belongs to.
ReplayedTrial replay_trial(const coperf::harness::Trial& trial,
                           SpanBuffer& spans, std::uint64_t request,
                           std::uint32_t parent);

/// Replays every trial on `lanes` lanes of the harness pool. Each lane
/// is a "harness.lane" span under `parent`, so lane idle time shows as
/// harness self time. Results are indexed like `trials`.
std::vector<ReplayedTrial> replay_all(
    const std::vector<coperf::harness::Trial>& trials, unsigned lanes,
    SpanBuffer& spans, std::uint32_t parent);

/// Field-by-field equality of every CoreStats counter.
bool same_stats(const coperf::sim::CoreStats& a,
                const coperf::sim::CoreStats& b);

/// True when the replay reproduced the stored result of `trial`: same
/// member count, cycles and CoreStats. Reads the RunCache memory layer.
bool replay_matches(const coperf::harness::Trial& trial,
                    const ReplayedTrial& replayed);

}  // namespace perfbench

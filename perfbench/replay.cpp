#include "replay.hpp"

#include <atomic>
#include <memory>

#include "harness/parallel.hpp"
#include "harness/runcache.hpp"
#include "perf/pcm.hpp"
#include "perf/profiler.hpp"
#include "sim/machine.hpp"
#include "wl/registry.hpp"

namespace perfbench {

namespace {

namespace harness = coperf::harness;
namespace sim = coperf::sim;
namespace wl = coperf::wl;

/// Member i's RNG stream offset: the pair harness' background-seed
/// convention that harness::run_group applies per member. A mismatch
/// would fail replay_matches, not pass silently.
constexpr std::uint64_t kMemberSeedStride = 0x9E37u;

}  // namespace

ReplayedTrial replay_trial(const harness::Trial& trial, SpanBuffer& spans,
                           std::uint64_t request, std::uint32_t parent) {
  const Scope trial_span{spans, "harness.trial", Layer::Harness, request,
                         parent};
  const std::int64_t t0 = now_ns();
  const harness::RunOptions& opt = trial.opt;
  const auto& members = trial.group.members;
  ReplayedTrial r;
  for (const harness::MemberSpec& mem : members)
    r.workloads.push_back(mem.workload);

  const auto timed = [&](const char* name, Layer layer, auto&& body) {
    const Scope s{spans, name, layer, request};
    const std::int64_t a = now_ns();
    body();
    return static_cast<double>(now_ns() - a);
  };

  std::unique_ptr<sim::Machine> m;
  r.setup_ns += timed("sim.machine_setup", Layer::Sim, [&] {
    m = std::make_unique<sim::Machine>(opt.machine);
    m->set_sample_window(opt.sample_window);
    m->set_cycle_limit(opt.cycle_limit);
  });
  const wl::Registry& reg = wl::Registry::instance();
  std::vector<std::unique_ptr<wl::AppModel>> models;
  unsigned first_core = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const harness::MemberSpec& mem = members[i];
    std::unique_ptr<wl::AppModel> model;
    sim::AppBinding binding;
    r.create_ns.push_back(timed("wl.create", Layer::Wl, [&] {
      model = reg.create(
          mem.workload,
          wl::AppParams{static_cast<sim::AppId>(i), mem.threads,
                        mem.size.value_or(opt.size),
                        opt.seed + i * kMemberSeedStride});
      binding.sources = model->sources();
    }));
    r.footprint_bytes.push_back(model->footprint_bytes());
    binding.id = static_cast<sim::AppId>(i);
    for (unsigned c = 0; c < mem.threads; ++c)
      binding.cores.push_back(first_core + c);
    if (mem.restart_until_done) {
      binding.background = true;
      binding.restart = [raw = model.get()] { raw->restart(); };
    }
    r.setup_ns += timed("sim.machine_setup", Layer::Sim,
                        [&] { m->add_app(std::move(binding)); });
    first_core += mem.threads;
    models.push_back(std::move(model));
  }

  sim::RunOutcome out;
  r.run_ns = timed("sim.run", Layer::Sim, [&] { out = m->run(); });

  // The result collection run_group does after the run, so the replay
  // costs what a plan trial costs.
  timed("harness.collect", Layer::Harness, [&] {
    (void)coperf::perf::summarize_bandwidth(*m);
    for (std::size_t i = 0; i < members.size(); ++i) {
      r.member_stats.push_back(m->app_stats(i));
      r.member_cycles.push_back(out.app_finish[i]);
      (void)coperf::perf::profile_app(*m, i, /*min_cycles=*/1000);
      (void)m->app_latency(i);
    }
    const auto add = [&r](const sim::CacheStats& s) {
      r.prefetch_fills += s.prefetch_fills;
      r.prefetch_useful += s.prefetch_useful;
    };
    for (unsigned c = 0; c < m->config().num_cores; ++c) {
      add(m->mem().l1(c).stats());
      add(m->mem().l2(c).stats());
    }
    add(m->mem().l3().stats());
  });
  r.trial_ns = static_cast<double>(now_ns() - t0);
  return r;
}

std::vector<ReplayedTrial> replay_all(
    const std::vector<harness::Trial>& trials, unsigned lanes,
    SpanBuffer& spans, std::uint32_t parent) {
  std::vector<ReplayedTrial> out(trials.size());
  std::atomic<std::size_t> next{0};
  // One body call per lane; each lane drains the shared queue, so the
  // result does not depend on which pool thread runs which lane.
  harness::parallel_for(lanes, lanes, [&](std::size_t lane) {
    const Scope lane_span{spans, "harness.lane", Layer::Harness, lane, parent};
    for (std::size_t i = next.fetch_add(1); i < trials.size();
         i = next.fetch_add(1))
      out[i] = replay_trial(trials[i], spans, i, lane_span.id());
  });
  return out;
}

bool same_stats(const sim::CoreStats& a, const sim::CoreStats& b) {
  return a.cycles == b.cycles && a.instructions == b.instructions &&
         a.loads == b.loads && a.stores == b.stores &&
         a.l1d_hits == b.l1d_hits && a.l1d_misses == b.l1d_misses &&
         a.l2_hits == b.l2_hits && a.l2_misses == b.l2_misses &&
         a.l3_hits == b.l3_hits && a.l3_misses == b.l3_misses &&
         a.bytes_from_mem == b.bytes_from_mem &&
         a.bytes_written_back == b.bytes_written_back &&
         a.stall_cycles_mem == b.stall_cycles_mem &&
         a.pending_l2_cycles == b.pending_l2_cycles &&
         a.barrier_wait_cycles == b.barrier_wait_cycles &&
         a.prefetches_issued == b.prefetches_issued;
}

bool replay_matches(const harness::Trial& trial,
                    const ReplayedTrial& replayed) {
  harness::GroupResult stored;
  if (!harness::RunCache::instance().lookup(trial.key, &stored)) return false;
  if (stored.members.size() != replayed.member_stats.size()) return false;
  for (std::size_t i = 0; i < stored.members.size(); ++i)
    if (stored.members[i].cycles != replayed.member_cycles[i] ||
        !same_stats(stored.members[i].stats, replayed.member_stats[i]))
      return false;
  return true;
}

}  // namespace perfbench

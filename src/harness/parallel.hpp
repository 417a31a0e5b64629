// Host-side parallel fan-out for independent simulations.
//
// Every coperf simulation is self-contained (no shared mutable state
// between Machine instances), so experiment sweeps parallelize across
// host threads trivially. Work is executed on a process-wide persistent
// worker pool (spawned lazily, reused by every parallel_for call) so
// matrix sweeps stop paying thread create/join costs per call.
// Exceptions from workers are captured and rethrown on the caller.
#pragma once

#include <cstddef>
#include <functional>

namespace coperf::harness {

/// How parallel_for hands indices to workers.
enum class ParallelSchedule {
  /// Workers race on a shared atomic counter: best load balance when
  /// per-index cost varies (co-run cells differ wildly in cycles).
  Dynamic,
  /// Static block partition: participant t of n processes the
  /// contiguous range [t*total/n, (t+1)*total/n). Index-to-thread
  /// assignment is a pure function of (total, n), making wall-clock
  /// runs reproducible for benchmarking (bench/sim_throughput).
  StaticChunk,
};

/// Lanes (the caller included) a fan-out of `total` indices runs on:
/// `host_threads`, or when 0 the CPUs the calling thread may run on
/// (sched_getaffinity; else hardware_concurrency; else 4), capped at
/// `total`.
unsigned lane_count(unsigned host_threads, std::size_t total);

/// Runs body(i) for i in [0, total) on lane_count(host_threads, total)
/// lanes: the caller plus workers from the persistent pool. Blocks
/// until all complete. The first exception thrown by any worker is
/// rethrown here; remaining workers stop claiming new indices.
void parallel_for(std::size_t total, unsigned host_threads,
                  const std::function<void(std::size_t)>& body,
                  ParallelSchedule schedule = ParallelSchedule::Dynamic);

/// Number of workers the persistent pool currently holds (diagnostics).
unsigned pool_size();

}  // namespace coperf::harness

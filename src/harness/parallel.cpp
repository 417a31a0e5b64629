#include "harness/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace coperf::harness {

namespace {

/// One parallel_for invocation, shared between the caller and the pool
/// workers that join it. Work is claimed in units (single indices under
/// ParallelSchedule::Dynamic, contiguous chunks under ParallelSchedule::StaticChunk).
struct Job {
  std::size_t total = 0;
  std::size_t units = 0;
  unsigned participants = 1;
  ParallelSchedule schedule = ParallelSchedule::Dynamic;
  const std::function<void(std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::atomic<unsigned> active{0};  ///< workers currently inside the job
  unsigned joined = 0;  ///< workers admitted so far (guarded by pool mu_)
  std::exception_ptr error;
  std::mutex error_mu;

  void record_error() {
    std::lock_guard lock{error_mu};
    if (!error) error = std::current_exception();
    failed.store(true);
  }

  void work() {
    for (;;) {
      // Check BEFORE claiming: a failed sweep must not burn one unit
      // per worker loop on its way out.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t u = next.fetch_add(1);
      if (u >= units) return;
      try {
        if (schedule == ParallelSchedule::Dynamic) {
          (*body)(u);
        } else {
          // Chunk u of `participants`: a pure function of (total,
          // participants), so the work grouping is reproducible no
          // matter which worker claims it.
          const std::size_t lo = u * total / participants;
          const std::size_t hi = (u + 1) * total / participants;
          for (std::size_t i = lo; i < hi; ++i) {
            if (failed.load(std::memory_order_relaxed)) return;
            (*body)(i);
          }
        }
      } catch (...) {
        record_error();
        return;
      }
    }
  }
};

thread_local bool tls_inside_pool_worker = false;

/// Lazily-spawned persistent worker pool (process lifetime). Workers
/// sleep on a condition variable between parallel_for calls.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  unsigned size() {
    std::lock_guard lock{mu_};
    return static_cast<unsigned>(threads_.size());
  }

  void run(std::size_t total, unsigned participants, ParallelSchedule schedule,
           const std::function<void(std::size_t)>& body) {
    auto job = std::make_shared<Job>();
    job->total = total;
    job->participants = participants;
    job->units = schedule == ParallelSchedule::Dynamic ? total : participants;
    job->schedule = schedule;
    job->body = &body;
    {
      std::lock_guard lock{mu_};
      ensure_workers(participants - 1);
      current_ = job;
      ++job_seq_;
      work_cv_.notify_all();
    }
    job->work();  // the caller is participant number one
    std::unique_lock lock{mu_};
    if (current_ == job) current_.reset();  // no new joiners past this point
    done_cv_.wait(lock, [&] { return job->active.load() == 0; });
    lock.unlock();
    if (job->error) std::rethrow_exception(job->error);
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  WorkerPool() = default;

  ~WorkerPool() {
    {
      std::lock_guard lock{mu_};
      stop_ = true;
      work_cv_.notify_all();
    }
    for (auto& t : threads_) t.join();
  }

  void ensure_workers(unsigned wanted) {
    while (threads_.size() < wanted) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    tls_inside_pool_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock lock{mu_};
        work_cv_.wait(lock, [&] {
          return stop_ || (current_ != nullptr && job_seq_ != seen);
        });
        if (stop_) return;
        seen = job_seq_;
        // Honor the job's host_threads cap: the caller is participant
        // one, so at most participants-1 pool workers may join even
        // when earlier calls grew the pool beyond that.
        if (current_->joined >= current_->participants - 1) continue;
        job = current_;
        ++job->joined;
        job->active.fetch_add(1);
      }
      job->work();
      {
        std::lock_guard lock{mu_};
        if (job->active.fetch_sub(1) == 1) done_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  std::shared_ptr<Job> current_;
  std::uint64_t job_seq_ = 0;
  bool stop_ = false;
};

}  // namespace

unsigned lane_count(unsigned host_threads, std::size_t total) {
  unsigned n = host_threads;
  if (n == 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      n = static_cast<unsigned>(CPU_COUNT(&set));
  }
  if (n == 0) n = std::thread::hardware_concurrency();
  if (n == 0) n = 4;
  return static_cast<unsigned>(std::min<std::size_t>(n, total));
}

void parallel_for(std::size_t total, unsigned host_threads,
                  const std::function<void(std::size_t)>& body,
                  ParallelSchedule schedule) {
  const unsigned n = lane_count(host_threads, total);
  // Serial fast path; also taken from inside a pool worker (nested
  // parallel_for must not wait on the pool it is running on).
  if (n <= 1 || tls_inside_pool_worker) {
    for (std::size_t i = 0; i < total; ++i) body(i);
    return;
  }
  WorkerPool::instance().run(total, n, schedule, body);
}

unsigned pool_size() { return WorkerPool::instance().size(); }

}  // namespace coperf::harness

// ThreadCtx + CoroSource: the pump between workload coroutines and the
// core timing model.
//
// A workload thread body receives a ThreadCtx& and emits trace ops with
//   co_await ctx.load(addr, pc);
//   co_await ctx.compute(n);
//   co_await ctx.barrier();
// Each emit is buffered; the coroutine suspends only when the buffer is
// full. CoroSource drains the buffer through sim::OpSource::refill and
// resumes the coroutine when empty.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>

#include "sim/op.hpp"
#include "wl/coro.hpp"

namespace coperf::wl {

class ThreadCtx {
 public:
  static constexpr std::size_t kCap = 8192;
  /// Largest uop burst packed into a single Compute op; bounds how far
  /// one op can advance a core past its quantum.
  static constexpr std::uint32_t kComputeChunk = 2048;

  ThreadCtx() : buf_(std::make_unique_for_overwrite<sim::Op[]>(kCap + 1)) {}
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  bool full() const { return len_ >= kCap; }
  bool empty() const { return head_ >= len_; }

  /// Copies up to `max` buffered ops to `out`; returns the count.
  std::size_t drain(sim::Op* out, std::size_t max) {
    const std::size_t avail = len_ - head_;
    const std::size_t n = avail < max ? avail : max;
    for (std::size_t i = 0; i < n; ++i) out[i] = buf_[head_ + i];
    head_ += n;
    if (head_ >= len_) head_ = len_ = 0;
    return n;
  }

  /// Zero-copy drain of everything buffered: marks it consumed and
  /// returns the slice. The slice stays valid until the next
  /// reset_consumed()/clear() (i.e. until the pump resumes the body).
  const sim::Op* drain_all_view(std::size_t& n) {
    n = len_ - head_;
    const sim::Op* p = buf_.get() + head_;
    head_ = len_;
    return p;
  }

  /// Reclaims buffer storage once a zero-copy view has been consumed.
  void reset_consumed() {
    if (head_ != 0 && head_ >= len_) head_ = len_ = 0;
  }

  /// Stable non-null pointer for empty zero-copy results.
  const sim::Op* storage() const { return buf_.get(); }

  void clear() {
    head_ = len_ = 0;
    at_barrier_ = false;
  }

  /// True while the body is parked at a barrier: the pump must not
  /// resume it until the core reports the barrier released (otherwise
  /// the generator -- which runs ahead of simulated time -- would touch
  /// next-epoch shared state while siblings are still in this epoch).
  bool at_barrier() const { return at_barrier_; }
  void barrier_released() { at_barrier_ = false; }

  // ---- awaitable emitters --------------------------------------------

  /// Single-op emitter: pushes in await_ready when space is available,
  /// otherwise suspends and pushes right after the pump drains.
  struct [[nodiscard]] Emit {
    ThreadCtx* c;
    sim::Op op;
    bool pushed = false;
    bool await_ready() {
      if (!c->full()) {
        c->push(op);
        pushed = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<>) noexcept {}
    void await_resume() {
      if (!pushed) c->push(op);
    }
  };

  /// Multi-chunk compute emitter (splits big bursts into kComputeChunk
  /// pieces for quantum fairness).
  struct [[nodiscard]] EmitCompute {
    ThreadCtx* c;
    std::uint64_t remaining;
    bool await_ready() {
      push_some();
      return remaining == 0;
    }
    void await_suspend(std::coroutine_handle<>) noexcept {}
    void await_resume() {
      push_some();
      // The pump resumes only on an empty buffer (capacity kCap ops >=
      // any residual chunk count), so one suspension always suffices.
      assert(remaining == 0 && "compute burst larger than buffer capacity");
    }
    void push_some() {
      while (remaining > 0 && !c->full()) {
        const auto n = remaining < kComputeChunk
                           ? static_cast<std::uint32_t>(remaining)
                           : kComputeChunk;
        c->push(sim::Op::compute(n));
        remaining -= n;
      }
    }
  };

  Emit load(sim::Addr a, std::uint16_t pc, sim::Dep dep = sim::Dep::Indep) {
    return Emit{this, sim::Op::load(a, pc, dep)};
  }
  Emit store(sim::Addr a, std::uint16_t pc) {
    return Emit{this, sim::Op::store(a, pc)};
  }
  /// Barrier emitter: pushes the op and ALWAYS suspends; the pump keeps
  /// the body suspended until the core passes the barrier.
  struct [[nodiscard]] EmitBarrier {
    ThreadCtx* c;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) {
      c->push(sim::Op::barrier());
      c->at_barrier_ = true;
    }
    void await_resume() const noexcept {}
  };

  EmitCompute compute(std::uint64_t uops) { return EmitCompute{this, uops}; }
  EmitBarrier barrier() { return EmitBarrier{this}; }
  Emit region(std::uint32_t id) { return Emit{this, sim::Op::region(id)}; }
  /// Request boundary for serving workloads: records the cycles since
  /// the previous mark as one request latency.
  Emit request_done() { return Emit{this, sim::Op::request_done()}; }
  /// Moves the latency mark without recording (setup, batch gaps).
  Emit request_reset() { return Emit{this, sim::Op::request_reset()}; }

 private:
  /// Appends one op. Emit and EmitCompute check full() first; a barrier
  /// may land on a full buffer, so the buffer holds kCap + 1 ops. kCap
  /// is part of the model: it sets where op bursts split across refills.
  void push(const sim::Op& op) { buf_[len_++] = op; }

  /// Ops [head_, len_) are pending.
  std::unique_ptr<sim::Op[]> buf_;
  std::size_t head_ = 0;
  std::size_t len_ = 0;
  bool at_barrier_ = false;
};

/// sim::OpSource implemented by pumping a workload coroutine.
class CoroSource final : public sim::OpSource {
 public:
  using Factory = std::function<TraceGen(ThreadCtx&)>;

  CoroSource(Factory factory, sim::ThreadAttr attr)
      : factory_(std::move(factory)), attr_(attr) {}

  /// Arms (or re-arms) the source for a fresh run of the thread body.
  void rearm() {
    ctx_.clear();
    gen_.emplace(factory_(ctx_));
  }

  std::size_t refill(sim::Op* buf, std::size_t max) override {
    for (;;) {
      if (const std::size_t n = ctx_.drain(buf, max); n != 0) return n;
      if (ctx_.at_barrier() || !gen_ || gen_->done()) return 0;
      gen_->resume();
      if (ctx_.empty() && gen_->done()) return 0;
    }
  }

  /// Zero-copy pump: hands the core the coroutine's buffer directly
  /// (same op sequence as refill(), one 16-byte copy per op less).
  const sim::Op* refill_view(std::size_t& n) override {
    for (;;) {
      if (!ctx_.empty()) return ctx_.drain_all_view(n);
      ctx_.reset_consumed();
      if (ctx_.at_barrier() || !gen_ || gen_->done()) {
        n = 0;
        return ctx_.storage();
      }
      gen_->resume();
      if (ctx_.empty() && gen_->done()) {
        n = 0;
        return ctx_.storage();
      }
    }
  }

  void barrier_passed() override { ctx_.barrier_released(); }

  sim::ThreadAttr attr() const override { return attr_; }

 private:
  Factory factory_;
  sim::ThreadAttr attr_;
  ThreadCtx ctx_;
  std::optional<TraceGen> gen_;
};

}  // namespace coperf::wl

#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace perfbench {

namespace {

thread_local std::uint32_t t_current = kNoParent;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t idx = next.fetch_add(1);
  return idx;
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Root: return "obs";
    case Layer::Sim: return "sim";
    case Layer::Wl: return "wl";
    case Layer::Harness: return "harness";
    case Layer::Predict: return "predict";
    case Layer::Cluster: return "cluster";
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanBuffer::SpanBuffer() : chunks_(new std::atomic<Span*>[kMaxChunks]) {
  for (std::size_t c = 0; c < kMaxChunks; ++c) chunks_[c].store(nullptr);
}

SpanBuffer::~SpanBuffer() {
  for (std::size_t c = 0; c < kMaxChunks; ++c) delete[] chunks_[c].load();
}

Span* SpanBuffer::chunk_for(std::uint32_t id) {
  const std::size_t c = id / kChunk;
  if (c >= kMaxChunks) throw std::length_error{"SpanBuffer: too many spans"};
  Span* chunk = chunks_[c].load(std::memory_order_acquire);
  if (chunk != nullptr) return chunk;
  std::lock_guard lock{grow_mu_};
  chunk = chunks_[c].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    chunk = new Span[kChunk];
    chunks_[c].store(chunk, std::memory_order_release);
  }
  return chunk;
}

std::uint32_t SpanBuffer::next_id() {
  const std::uint32_t id = next_.fetch_add(1, std::memory_order_relaxed);
  (void)chunk_for(id);
  return id;
}

void SpanBuffer::record(const Span& s) { chunk_for(s.id)[s.id % kChunk] = s; }

const std::vector<Span>& SpanBuffer::spans() {
  if (frozen_) return closed_;
  frozen_ = true;
  const std::uint32_t n = next_.load();
  closed_.reserve(n);
  for (std::size_t c = 0; c * kChunk < n; ++c) {
    Span* chunk = chunks_[c].exchange(nullptr);
    for (std::size_t k = 0; k < kChunk && c * kChunk + k < n; ++k)
      if (chunk[k].end_ns != 0) closed_.push_back(chunk[k]);  // skip open spans
    delete[] chunk;
  }
  return closed_;
}

void SpanBuffer::write_tsv(std::ostream& os, std::size_t max_lines) {
  os << "id\tparent\tthread\tlayer\tname\trequest\tstart_ns\tduration_ns\n";
  const std::vector<Span>& all = spans();
  const std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  const std::size_t n = std::min(all.size(), max_lines);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = all[i];
    os << s.id << '\t'
       << (s.parent == kNoParent ? std::int64_t{-1}
                                 : static_cast<std::int64_t>(s.parent))
       << '\t' << s.thread << '\t' << layer_name(s.layer) << '\t' << s.name
       << '\t' << s.request << '\t' << s.start_ns - t0 << '\t'
       << s.duration_ns() << '\n';
  }
  if (n < all.size())
    os << "# " << all.size() - n << " later spans not written\n";
}

Scope::Scope(SpanBuffer& buf, const char* name, Layer layer,
             std::uint64_t request, std::uint32_t parent)
    : buf_(buf), saved_current_(t_current) {
  span_.name = name;
  span_.layer = layer;
  span_.id = buf.next_id();
  span_.parent = parent != kNoParent ? parent : t_current;
  span_.thread = thread_index();
  span_.request = request;
  t_current = span_.id;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  span_.end_ns = now_ns();
  t_current = saved_current_;
  buf_.record(span_);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  // Ids are dense per buffer, so the parent lookup and the child lists
  // are flat arrays (children in compressed-row form).
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t max_id = 0;
  for (const Span& s : spans) max_id = std::max(max_id, s.id);
  std::vector<std::uint32_t> index(spans.empty() ? 0 : max_id + std::size_t{1},
                                   kNone);
  for (std::size_t i = 0; i < spans.size(); ++i)
    index[spans[i].id] = static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> parent_of(spans.size(), kNone);
  std::vector<std::uint32_t> first(spans.size() + 1, 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t p = spans[i].parent;
    if (p < index.size() && index[p] != kNone) {
      parent_of[i] = index[p];
      ++first[index[p] + 1];
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) first[i + 1] += first[i];
  std::vector<std::uint32_t> children(first.back());
  std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (parent_of[i] != kNone)
      children[fill[parent_of[i]]++] = static_cast<std::uint32_t>(i);

  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (std::uint32_t k = first[i]; k < first[i + 1]; ++k) {
      const Span& c = spans[children[k]];
      const std::int64_t a = std::max(c.start_ns, s.start_ns);
      const std::int64_t b = std::min(c.end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

namespace {

/// Nearest-rank position (1-based) of percentile `pct` among n samples.
std::size_t rank_of(double pct, std::size_t n) {
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 n);
}

}  // namespace

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[rank_of(pct, samples.size()) - 1];
}

Tail tail_of(std::vector<double> samples) {
  Tail t;
  const std::size_t n = samples.size();
  if (n == 0) return t;
  std::sort(samples.begin(), samples.end());
  std::vector<double> ladder = {50.0, 75.0, 90.0, 95.0};
  for (double gap = 1.0; gap >= 1e-6; gap /= 10.0) {  // 99, 99.5, 99.9, ...
    ladder.push_back(100.0 - gap);
    ladder.push_back(100.0 - gap / 2.0);
  }
  for (const double pct : ladder) {
    const std::size_t rank = rank_of(pct, n);
    if (n - rank < 10) break;
    t.percentile = pct;
    t.value = samples[rank - 1];
    t.beyond = n - rank;
  }
  return t;
}

}  // namespace perfbench

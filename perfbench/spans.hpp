// In-memory span buffer for the benchmark's traced runs.
//
// A span is one timed call into a library module's public API, made
// from the benchmark's own files: its name, the layer (src/ module) it
// entered, the span that caused it, a request id (a plan trial index
// or a cluster job id) and its steady_clock interval. Spans are kept
// in memory while the workload runs and written out once at exit, so
// recording costs two clock reads and a store into a preallocated
// slot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

/// The src/ modules a span can enter. Root is the benchmark itself:
/// its self time is the part of the traced wall no layer accounts for.
enum class Layer : std::uint8_t { Root, Sim, Wl, Harness, Predict, Cluster };
inline constexpr std::size_t kLayers = 6;
const char* layer_name(Layer l);

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  const char* name = "";  ///< string literal
  Layer layer = Layer::Root;
  std::uint32_t id = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t thread = 0;  ///< recording thread, dense per buffer
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

std::int64_t now_ns();

class SpanBuffer {
 public:
  SpanBuffer();
  ~SpanBuffer();
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// Reserves an id, and the slot its span will be recorded in, for a
  /// span opened now; children may name it as their parent before it
  /// closes. Lock-free except when a new chunk of slots is needed.
  std::uint32_t next_id();
  /// Stores a closed span in the slot of its id.
  void record(const Span& s);

  /// Every closed span, ordered by id. Call after every recording
  /// thread has finished: the first call ends recording and moves the
  /// slots into one vector (freeing them as it goes), later calls
  /// return that vector.
  const std::vector<Span>& spans();

  /// One tab-separated line per span (id, parent, thread, layer, name,
  /// request, start_ns, duration_ns), ordered by id, at most
  /// `max_lines` of them; a final comment line counts the rest.
  void write_tsv(std::ostream& os, std::size_t max_lines);

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 14;

  Span* chunk_for(std::uint32_t id);

  std::atomic<std::uint32_t> next_{0};
  std::unique_ptr<std::atomic<Span*>[]> chunks_;
  std::mutex grow_mu_;
  std::vector<Span> closed_;
  bool frozen_ = false;
};

/// RAII span: opens on construction, records on destruction. The
/// parent defaults to the innermost open Scope of the calling thread;
/// pass one explicitly for work handed to another thread.
class Scope {
 public:
  Scope(SpanBuffer& buf, const char* name, Layer layer,
        std::uint64_t request = 0, std::uint32_t parent = kNoParent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const { return span_.id; }

 private:
  SpanBuffer& buf_;
  Span span_;
  std::uint32_t saved_current_;
};

/// Self time of each span: its duration minus the union of its
/// children's intervals (clipped to its own). Children may run on
/// other threads; overlapping children are counted once. Indexed like
/// `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// A timing's tail: the highest percentile of the ladder 50, 75, 90,
/// 95, 99, 99.5, 99.9, 99.95, 99.99, ... that leaves at least ten
/// samples strictly beyond its nearest-rank position. `beyond` is that
/// count; all fields stay 0 below 20 samples, where no rung qualifies.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> samples);

/// Nearest-rank percentile of unsorted samples (0 when empty).
double percentile(std::vector<double> samples, double pct);

}  // namespace perfbench

// The four Sandy Bridge hardware prefetchers (Section IV-C):
//   - L1-D next-line (DCU) prefetcher
//   - L1-D IP-stride prefetcher
//   - L2 streamer ("L2 hardware prefetcher")
//   - L2 adjacent-cache-line (buddy) prefetcher
// One PrefetcherBank instance sits next to each core, like the per-core
// MSR 0x1A4 control the paper toggles.
//
// The on_* hooks run on every demand access / L2 miss (tens of millions
// of calls per trial), so they live in this header and inline into the
// hierarchy walk.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/addr.hpp"
#include "sim/config.hpp"

namespace coperf::sim {

/// Target level of a generated prefetch.
enum class PrefetchLevel : std::uint8_t { L1, L2 };

struct PrefetchRequest {
  Addr line = 0;
  PrefetchLevel level = PrefetchLevel::L2;
};

/// Per-core bank of the four prefetchers. Callers invoke the on_*
/// hooks during demand accesses; generated requests are appended to the
/// caller-owned vector (kept allocation-free in steady state).
class PrefetcherBank {
 public:
  PrefetcherBank(const PrefetchMask& mask, std::uint32_t streamer_degree,
                 std::uint32_t streamer_train)
      : mask_(mask), degree_(streamer_degree), train_(streamer_train) {}

  /// Demand L1-D access (both hits and misses train the IP prefetcher;
  /// only misses trigger the next-line prefetcher).
  void on_l1_access(Addr addr, std::uint16_t pc, bool miss,
                    std::vector<PrefetchRequest>& out) {
    const Addr line = line_of(addr);

    if (mask_.l1_ip_stride && pc != 0) {
      IpEntry& e = ip_table_[pc % kIpTableSize];
      if (e.valid && e.pc == pc) {
        const std::int64_t stride = static_cast<std::int64_t>(addr) -
                                    static_cast<std::int64_t>(e.last_addr);
        if (stride != 0 && stride == e.stride) {
          if (e.confidence < kIpConfidenceThreshold) ++e.confidence;
        } else {
          e.stride = stride;
          e.confidence = 0;
        }
        e.last_addr = addr;
        // Real DCU IP prefetchers only track short strides; large hops
        // (e.g. Bandit's set-conflict pattern) must not be predictable.
        constexpr std::int64_t kMaxStride = 2048;
        if (e.confidence >= kIpConfidenceThreshold && e.stride != 0 &&
            e.stride >= -kMaxStride && e.stride <= kMaxStride) {
          // Fetch the line two strides ahead (prefetch distance 2).
          const Addr target = static_cast<Addr>(
              static_cast<std::int64_t>(addr) + 2 * e.stride);
          if (line_of(target) != line)
            emit(line_of(target), PrefetchLevel::L1, out);
        }
      } else {
        e = IpEntry{pc, addr, 0, 0, true};
      }
    }

    if (miss) {
      // The DCU next-line prefetcher has an ascending-pattern filter:
      // random misses (graph gathers, hash probes) must not trigger it.
      const bool ascending =
          last_l1_miss_line_ != ~Addr{0} && line >= last_l1_miss_line_ &&
          line - last_l1_miss_line_ <= 2;
      if (mask_.l1_next_line && ascending)
        emit(line + 1, PrefetchLevel::L1, out);
      last_l1_miss_line_ = line;
    }
  }

  /// Demand L2 miss (trains the streamer, fires the adjacent prefetcher).
  void on_l2_miss(Addr line, std::vector<PrefetchRequest>& out) {
    if (mask_.l2_adjacent) {
      // Fetch the buddy line of the 128-byte aligned pair.
      emit(line ^ 1, PrefetchLevel::L2, out);
    }

    if (!mask_.l2_stream) return;

    const Addr page = page_of_line(line);
    // Steady state is a match on a trained stream: the lookup scans the
    // packed page keys alone (an empty slot holds kNoPage) with an early
    // exit, and allocation reads the valid mask and the stamps.
    std::uint32_t k = 0;
    while (k < kStreamTableSize && stream_page_[k] != page) ++k;
    ++stream_clock_;
    if (k == kStreamTableSize) {
      // Prefer the first empty slot; otherwise evict the least recently
      // used (stamps are unique, so ties cannot occur).
      std::uint32_t victim;
      if (stream_valid_ != kAllStreams) {
        victim = static_cast<std::uint32_t>(std::countr_zero(
            static_cast<std::uint32_t>(~stream_valid_)));
        stream_valid_ |= static_cast<std::uint16_t>(1u << victim);
      } else {
        victim = 0;
        for (std::uint32_t s = 1; s < kStreamTableSize; ++s)
          if (stream_lru_[s] < stream_lru_[victim]) victim = s;
      }
      stream_page_[victim] = page;
      stream_lru_[victim] = stream_clock_;
      streams_[victim] = StreamEntry{line, 0, 1};
      return;
    }
    stream_lru_[k] = stream_clock_;
    StreamEntry* const entry = &streams_[k];
    const std::int64_t delta = static_cast<std::int64_t>(line) -
                               static_cast<std::int64_t>(entry->last_line);
    if (delta == 1 || delta == -1) {
      const auto dir = static_cast<std::int8_t>(delta);
      entry->run = (entry->direction == dir)
                       ? static_cast<std::uint8_t>(entry->run + 1)
                       : std::uint8_t{1};
      entry->direction = dir;
      if (entry->run >= train_) {
        for (std::uint32_t i = 1; i <= degree_; ++i) {
          // Keep the arithmetic signed: dir(-1) * unsigned would wrap.
          const std::int64_t target =
              static_cast<std::int64_t>(line) +
              static_cast<std::int64_t>(dir) * static_cast<std::int64_t>(i + 1);
          if (target >= 0 && page_of_line(static_cast<Addr>(target)) == page)
            emit(static_cast<Addr>(target), PrefetchLevel::L2, out);
        }
      }
    } else {
      entry->run = 1;
      entry->direction = 0;
    }
    entry->last_line = line;
  }

  const PrefetchMask& mask() const { return mask_; }
  void set_mask(const PrefetchMask& m) { mask_ = m; }

  std::uint64_t issued() const { return issued_; }
  void reset();

 private:
  static constexpr unsigned kPageBytesLog2 = 12;  // 4 KiB training granule
  static constexpr Addr page_of_line(Addr line) {
    return line >> (kPageBytesLog2 - kLineBytesLog2);
  }

  // --- L1 IP-stride state ---------------------------------------------
  struct IpEntry {
    std::uint16_t pc = 0;
    Addr last_addr = 0;
    std::int64_t stride = 0;
    std::uint8_t confidence = 0;
    bool valid = false;
  };
  static constexpr std::size_t kIpTableSize = 256;
  static constexpr std::uint8_t kIpConfidenceThreshold = 2;

  // --- L2 streamer state ------------------------------------------------
  // Structure of arrays: the per-miss lookup reads only the 16 page keys
  // (128 bytes); the valid mask and LRU stamps serve allocation.
  struct StreamEntry {
    Addr last_line = 0;
    std::int8_t direction = 0;  // +1 / -1
    std::uint8_t run = 0;       // consecutive sequential misses seen
  };
  static constexpr std::uint32_t kStreamTableSize = 16;
  static constexpr auto kAllStreams =
      static_cast<std::uint16_t>((1u << kStreamTableSize) - 1);
  /// Page key of an empty slot (page numbers are addresses >> 12).
  static constexpr Addr kNoPage = ~Addr{0};
  static constexpr std::array<Addr, kStreamTableSize> empty_pages() {
    std::array<Addr, kStreamTableSize> pages{};
    pages.fill(kNoPage);
    return pages;
  }

  void emit(Addr line, PrefetchLevel level, std::vector<PrefetchRequest>& out) {
    out.push_back(PrefetchRequest{line, level});
    ++issued_;
  }

  Addr last_l1_miss_line_ = ~Addr{0};
  PrefetchMask mask_;
  std::uint32_t degree_;
  std::uint32_t train_;
  std::array<IpEntry, kIpTableSize> ip_table_{};
  std::array<Addr, kStreamTableSize> stream_page_ = empty_pages();
  std::array<std::uint64_t, kStreamTableSize> stream_lru_{};
  std::array<StreamEntry, kStreamTableSize> streams_{};
  std::uint16_t stream_valid_ = 0;  ///< bit k: slot k holds a stream
  std::uint64_t stream_clock_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace coperf::sim

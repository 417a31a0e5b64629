// The set-associative cache's executable specification: plain true LRU
// with one vector of ways per set and an explicit recency list, no
// filters, memos, masks or stamps. The differential tests drive it and
// sim::Cache with the same operation sequences and require identical
// results, statistics, occupancy and set-departure behaviour.
//
// Rules it pins down:
//   - a fill takes the first invalid way; a full set evicts its least
//     recently used line;
//   - access hits, probe hits, fills and duplicate fills set the line
//     note_private() marks; misses, mark_dirty and invalidate do not;
//   - only access hits and fills (new or duplicate) refresh recency;
//   - a set's departure epoch moves whenever a valid line leaves it.
// Header-only because every tests/*.cpp builds as its own suite; the
// scans are linear, so keep geometries small.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/cache.hpp"

namespace coperf::sim {

class ReferenceCache {
 public:
  ReferenceCache(const CacheConfig& cfg, bool hashed_index,
                 bool track_private_copies)
      : hashed_(hashed_index),
        track_private_(track_private_copies),
        sets_(cfg.num_sets(), std::vector<Way>(cfg.assoc)),
        recency_(cfg.num_sets()),
        epochs_(cfg.num_sets(), 0) {
    while ((std::uint64_t{1} << sets_log2_) < sets_.size()) ++sets_log2_;
  }

  std::uint64_t set_index(Addr line) const {
    const std::uint64_t mask = sets_.size() - 1;
    if (!hashed_) return line & mask;
    const unsigned s = sets_log2_;
    return (line ^ (line >> s) ^ (line >> (2 * s)) ^ (line >> (3 * s))) & mask;
  }

  CacheResult access(Addr line, bool is_write) {
    CacheResult r;
    const std::uint64_t s = set_index(line);
    const std::size_t w = find(s, line);
    if (w == kNone) {
      ++(is_write ? stats_.store_misses : stats_.demand_misses);
      return r;
    }
    Way& way = sets_[s][w];
    r.hit = true;
    r.was_prefetched = way.prefetched;
    if (way.prefetched) ++stats_.prefetch_useful;
    way.prefetched = false;
    if (is_write) way.dirty = true;
    ++(is_write ? stats_.store_hits : stats_.demand_hits);
    touch(s, w);
    mark(s, w);
    return r;
  }

  bool probe(Addr line) {
    const std::uint64_t s = set_index(line);
    const std::size_t w = find(s, line);
    if (w == kNone) return false;
    mark(s, w);
    return true;
  }

  CacheResult fill(Addr line, bool dirty, bool from_prefetch) {
    CacheResult r;
    const std::uint64_t s = set_index(line);
    if (const std::size_t w = find(s, line); w != kNone) {
      if (dirty) sets_[s][w].dirty = true;  // duplicate fill
      touch(s, w);
      mark(s, w);
      return r;
    }
    std::vector<Way>& ways = sets_[s];
    std::size_t victim = kNone;
    for (std::size_t w = 0; w < ways.size() && victim == kNone; ++w)
      if (!ways[w].valid) victim = w;
    if (victim == kNone) victim = recency_[s].front();
    Way& way = ways[victim];
    if (way.valid) {
      r.evicted = true;
      r.evicted_line = way.line;
      r.evicted_dirty = way.dirty;
      if (way.dirty) ++stats_.writebacks;
      if (track_private_) r.evicted_private_mask = way.private_mask;
      depart(s, victim);
    }
    way = Way{true, line, dirty, from_prefetch, 0};
    if (from_prefetch) ++stats_.prefetch_fills;
    touch(s, victim);
    mark(s, victim);
    return r;
  }

  bool mark_dirty(Addr line) {
    const std::uint64_t s = set_index(line);
    const std::size_t w = find(s, line);
    if (w == kNone) return false;
    sets_[s][w].dirty = true;
    return true;
  }

  Cache::InvalidateResult invalidate(Addr line) {
    const std::uint64_t s = set_index(line);
    const std::size_t w = find(s, line);
    if (w == kNone) return {};
    const Cache::InvalidateResult r{true, sets_[s][w].dirty};
    depart(s, w);
    ++stats_.back_invalidations;
    return r;
  }

  /// Marks the way last hit, probed or filled -- whatever it holds now.
  void note_private(unsigned core) {
    if (track_private_)
      sets_[mark_set_][mark_way_].private_mask |= std::uint64_t{1} << core;
  }

  std::uint64_t departures(Addr line) const { return epochs_[set_index(line)]; }

  const CacheStats& stats() const { return stats_; }

  std::uint64_t occupancy() const {
    std::uint64_t n = 0;
    for (const auto& ways : sets_)
      for (const Way& w : ways) n += w.valid;
    return n;
  }
  std::uint64_t occupancy_of(AppId app) const {
    std::uint64_t n = 0;
    for (const auto& ways : sets_)
      for (const Way& w : ways)
        n += w.valid && app_of(w.line << kLineBytesLog2) == app;
    return n;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  struct Way {
    bool valid = false;
    Addr line = 0;
    bool dirty = false;
    bool prefetched = false;
    std::uint64_t private_mask = 0;
  };

  std::size_t find(std::uint64_t s, Addr line) const {
    const std::vector<Way>& ways = sets_[s];
    for (std::size_t w = 0; w < ways.size(); ++w)
      if (ways[w].valid && ways[w].line == line) return w;
    return kNone;
  }

  /// Moves way `w` to the most recently used end of its set's list.
  void touch(std::uint64_t s, std::size_t w) {
    std::vector<std::size_t>& order = recency_[s];
    order.erase(std::remove(order.begin(), order.end(), w), order.end());
    order.push_back(w);
  }

  void mark(std::uint64_t s, std::size_t w) {
    mark_set_ = s;
    mark_way_ = w;
  }

  void depart(std::uint64_t s, std::size_t w) {
    sets_[s][w] = Way{};
    std::vector<std::size_t>& order = recency_[s];
    order.erase(std::remove(order.begin(), order.end(), w), order.end());
    ++epochs_[s];
  }

  bool hashed_;
  bool track_private_;
  unsigned sets_log2_ = 0;
  std::vector<std::vector<Way>> sets_;
  /// Per set: valid ways, least recently used first.
  std::vector<std::vector<std::size_t>> recency_;
  std::vector<std::uint64_t> epochs_;
  std::uint64_t mark_set_ = 0;
  std::size_t mark_way_ = 0;
  CacheStats stats_;
};

}  // namespace coperf::sim

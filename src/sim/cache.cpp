#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace coperf::sim {

Cache::Cache(Arena& arena, std::string name, const CacheConfig& cfg,
             bool hashed_index, bool track_private_copies)
    : name_(std::move(name)),
      cfg_(cfg),
      hashed_index_(hashed_index),
      num_sets_(cfg.num_sets()),
      assoc_(cfg.assoc),
      track_private_(track_private_copies) {
  init_storage(arena);
}

Cache::Cache(std::string name, const CacheConfig& cfg, bool hashed_index,
             bool track_private_copies)
    : name_(std::move(name)),
      cfg_(cfg),
      hashed_index_(hashed_index),
      num_sets_(cfg.num_sets()),
      assoc_(cfg.assoc),
      own_arena_(std::make_unique<Arena>()),
      track_private_(track_private_copies) {
  init_storage(*own_arena_);
}

void Cache::init_storage(Arena& arena) {
  if (num_sets_ == 0 || (num_sets_ & (num_sets_ - 1)) != 0)
    throw std::invalid_argument{name_ + ": set count must be a power of two"};
  if (assoc_ == 0 || assoc_ > 32)
    throw std::invalid_argument{name_ + ": associativity must be 1..32"};
  sets_log2_ = static_cast<std::uint64_t>(std::countr_zero(num_sets_));
  full_mask_ = assoc_ == 32 ? ~0u : (1u << assoc_) - 1;
  const std::uint64_t lines = num_sets_ * assoc_;
  tags_ = arena.alloc_array<Addr>(lines);
  std::fill_n(tags_, lines, kInvalidTag);
  lru_ = arena.alloc_array<std::uint64_t>(lines);
  flags_ = arena.alloc_array<std::uint8_t>(lines);
  valid_ = arena.alloc_array<std::uint32_t>(num_sets_);
  mru_idx_ = arena.alloc_array<std::uint32_t>(num_sets_);
  set_epoch_ = arena.alloc_array<std::uint32_t>(num_sets_);
  if (track_private_) private_mask_ = arena.alloc_array<std::uint64_t>(lines);
  // ~4 filter buckets per resident line keeps the false-positive rate
  // (cold lookups that still scan) in the low percent range while the
  // filter itself stays host-cache resident.
  std::uint64_t buckets = std::bit_ceil(lines * 4);
  buckets = std::min<std::uint64_t>(std::max<std::uint64_t>(buckets, 1024),
                                    64 * 1024);
  presence_ = arena.alloc_array<std::uint8_t>(buckets);
  presence_shift_ = 64u - static_cast<unsigned>(std::countr_zero(buckets));
}

Cache::InvalidateResult Cache::invalidate_slow(Addr line) {
  InvalidateResult r;
  const std::uint64_t set = set_index(line);
  const std::uint64_t base = set * assoc_;
  const std::uint32_t w = find_way(set, base, line);
  if (w == kNoWay) return r;
  const std::uint64_t i = base + w;
  r.present = true;
  r.dirty = (flags_[i] & kDirty) != 0;
  tags_[i] = kInvalidTag;
  valid_[set] &= ~(1u << w);
  --app_lines_[app_of_line(line)];
  --valid_lines_;
  presence_remove(line);
  ++set_epoch_[set];  // a line departed: combining proofs expire
  if (track_private_) private_mask_[i] = 0;
  ++stats_.back_invalidations;
  return r;
}

CacheResult Cache::access(Addr line, bool is_write) {
  // Member pointers are hoisted into locals throughout the hot methods:
  // flags_/presence_ are byte arrays, and a byte store may alias the
  // member pointers themselves, so without the locals every store forces
  // the compiler to reload them from `this`.
  std::uint8_t* const flags = flags_;
  const Addr* const tags = tags_;
  CacheResult r;
  const std::uint64_t set = set_index(line);
  // MRU-first: repeat touches dominate demand traffic, and the MRU
  // check is one compare -- cheaper than the presence-filter hash, so
  // it runs before the filter (the filter only pays off on misses;
  // both checks are side-effect-free, so the order is unobservable).
  const std::uint64_t m = mru_idx_[set];
  std::uint64_t i = m;
  if (tags[m] != line) {
    std::uint32_t w = kNoWay;
    const std::uint64_t base = set * assoc_;
    if (!definitely_absent(line)) {
      for (std::uint32_t k = 0; k < assoc_; ++k) {
        if (tags[base + k] == line) {
          w = k;
          break;
        }
      }
    }
    if (w == kNoWay) {
      memo_line_ = line;  // the upcoming fill may skip its duplicate lookup
      memo_valid_ = true;
      if (is_write)
        ++stats_.store_misses;
      else
        ++stats_.demand_misses;
      return r;
    }
    i = base + w;
    mru_idx_[set] = static_cast<std::uint32_t>(i);
  }
  last_touch_ = i;
  r.hit = true;
  r.was_prefetched = (flags[i] & kPrefetched) != 0;
  if (r.was_prefetched) {
    ++stats_.prefetch_useful;
    flags[i] &= static_cast<std::uint8_t>(~kPrefetched);  // first touch only
  }
  lru_[i] = ++lru_clock_;
  if (is_write) {
    flags[i] |= kDirty;
    ++stats_.store_hits;
  } else {
    ++stats_.demand_hits;
  }
  return r;
}

bool Cache::probe(Addr line) const {
  const std::uint64_t set = set_index(line);
  const std::uint64_t m = mru_idx_[set];  // MRU-first, as in access()
  if (tags_[m] == line) {
    last_touch_ = m;
    return true;
  }
  if (!definitely_absent(line)) {
    const std::uint64_t base = set * assoc_;
    const std::uint32_t w = find_way(set, base, line);
    if (w != kNoWay) {
      last_touch_ = base + w;
      return true;
    }
  }
  memo_line_ = line;
  memo_valid_ = true;
  return false;
}

CacheResult Cache::fill(Addr line, bool dirty, bool from_prefetch) {
  const std::uint64_t set = set_index(line);
  const std::uint64_t base = set * assoc_;
  if (memo_valid_ && memo_line_ == line) {
    // The caller just observed this line missing (access/probe), and
    // nothing can have inserted it since: skip the duplicate lookup.
    memo_valid_ = false;
  } else if (!definitely_absent(line)) {
    const std::uint32_t w = find_way(set, base, line);
    if (w != kNoWay) {
      // Duplicate fill (e.g. prefetch raced a demand fill): refresh state.
      const std::uint64_t i = base + w;
      if (dirty) flags_[i] |= kDirty;
      lru_[i] = ++lru_clock_;
      last_touch_ = i;
      return CacheResult{};
    }
  }
  return install(set, pick_victim(set, base), line, dirty, from_prefetch);
}

bool Cache::mark_dirty(Addr line) {
  const std::uint64_t set = set_index(line);
  const std::uint64_t m = mru_idx_[set];  // MRU-first, as in access()
  if (tags_[m] == line) {
    flags_[m] |= kDirty;
    return true;
  }
  if (!definitely_absent(line)) {
    const std::uint64_t base = set * assoc_;
    const std::uint32_t w = find_way(set, base, line);
    if (w != kNoWay) {
      flags_[base + w] |= kDirty;
      return true;
    }
  }
  memo_line_ = line;
  memo_valid_ = true;
  return false;
}

std::uint32_t Cache::find_way(std::uint64_t set, std::uint64_t base,
                              Addr line) const {
  const Addr* const tags = tags_;
  const std::uint64_t m = mru_idx_[set];
  if (tags[m] == line) return static_cast<std::uint32_t>(m - base);
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (tags[base + w] == line) {
      mru_idx_[set] = static_cast<std::uint32_t>(base + w);
      return w;
    }
  }
  return kNoWay;
}

std::uint32_t Cache::pick_victim(std::uint64_t set, std::uint64_t base) const {
  // First invalid way wins; otherwise the smallest LRU stamp (stamps
  // are unique, so ties cannot occur).
  const std::uint32_t valid = valid_[set];
  if (valid != full_mask_)
    return static_cast<std::uint32_t>(std::countr_zero(~valid));
  const std::uint64_t* const lru = lru_ + base;
  std::uint32_t victim = 0;
  std::uint64_t best = lru[0];
  for (std::uint32_t w = 1; w < assoc_; ++w) {
    const bool older = lru[w] < best;  // selects, not branches
    best = older ? lru[w] : best;
    victim = older ? w : victim;
  }
  return victim;
}

CacheResult Cache::install(std::uint64_t set, std::uint32_t way, Addr line,
                           bool dirty, bool from_prefetch) {
  std::uint8_t* const flags = flags_;
  Addr* const tags = tags_;
  CacheResult r;
  const std::uint64_t i = set * assoc_ + way;
  const Addr old_tag = tags[i];
  if (old_tag != kInvalidTag) {
    r.evicted = true;
    r.evicted_line = old_tag;
    r.evicted_dirty = (flags[i] & kDirty) != 0;
    if (r.evicted_dirty) ++stats_.writebacks;
    --app_lines_[app_of_line(old_tag)];
    --valid_lines_;
    presence_remove(old_tag);
    ++set_epoch_[set];  // a line departed: combining proofs expire
  } else {
    valid_[set] |= 1u << way;
  }
  if (track_private_) {
    if (r.evicted) r.evicted_private_mask = private_mask_[i];
    if (private_mask_[i] != 0) private_mask_[i] = 0;  // fresh line: no copies
  }
  last_touch_ = i;
  mru_idx_[set] = static_cast<std::uint32_t>(i);
  tags[i] = line;
  flags[i] = static_cast<std::uint8_t>((dirty ? kDirty : 0) |
                                       (from_prefetch ? kPrefetched : 0));
  lru_[i] = ++lru_clock_;
  ++app_lines_[app_of_line(line)];
  ++valid_lines_;
  presence_add(line);
  if (from_prefetch) ++stats_.prefetch_fills;
  if (memo_valid_ && memo_line_ == line) memo_valid_ = false;
  return r;
}

std::uint64_t Cache::set_index(Addr line) const {
  const std::uint64_t mask = num_sets_ - 1;
  if (!hashed_index_) return line & mask;
  // Folded-XOR set index: spreads high address bits (including the
  // AppId field) into the index so distinct address spaces interleave
  // across LLC sets instead of aliasing into a narrow band.
  Addr x = line;
  x ^= line >> sets_log2_;
  x ^= line >> (2 * sets_log2_);
  x ^= line >> (3 * sets_log2_);
  return x & mask;
}

}  // namespace coperf::sim

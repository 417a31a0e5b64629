#include "sim/prefetcher.hpp"

namespace coperf::sim {

void PrefetcherBank::reset() {
  ip_table_.fill(IpEntry{});
  stream_page_ = empty_pages();
  stream_lru_.fill(0);
  streams_.fill(StreamEntry{});
  stream_valid_ = 0;
  stream_clock_ = 0;
  issued_ = 0;
  last_l1_miss_line_ = ~Addr{0};
}

}  // namespace coperf::sim

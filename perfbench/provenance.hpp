// Provenance of one benchmark result: which code, built how, on how
// many usable cores, with which lane count and seed, and when.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Provenance {
  std::string commit;         ///< git commit, or "unknown" outside a repo
  std::string source_digest;  ///< sha256 over src/ (run.py computes it)
  std::string build_type;
  std::string compiler;
  unsigned usable_cores = 0;  ///< sched_getaffinity
  unsigned lanes = 0;
  std::uint64_t seed = 0;
  std::string date;  ///< UTC, ISO 8601

  std::string json() const;
};

/// CPUs this process may run on (sched_getaffinity); at least 1.
unsigned usable_cores();

/// Current UTC time as YYYY-MM-DDTHH:MM:SSZ.
std::string utc_now();

}  // namespace perfbench

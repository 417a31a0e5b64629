// The benchmark's four workloads. Each builds its inputs from the seed
// (setup), runs one timed section untraced and checks its outputs
// (run), and runs it once more with spans at every module boundary
// for the per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned lanes = 1;        ///< host lanes for plan and truth builds
  std::string expected_dir;  ///< committed expected outputs (perfbench/expected)
};

/// One untraced execution of a workload's timed section.
struct Iteration {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time, every lane included
  std::uint64_t ops = 0;  ///< trials (sim workloads) or jobs simulated
  std::vector<std::string> failures;  ///< output checks that failed
};

/// Per-layer metric values by name (units live in main.cpp's table).
using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from the seed; repeatable.
  virtual void setup() = 0;
  /// Runs the timed section once, then checks its outputs.
  virtual Iteration run() = 0;
  /// After run(): runs the timed section again with spans under one
  /// root span, checks that the traced execution reproduced the
  /// untraced one, and returns the workload's per-layer metrics.
  virtual Metrics traced(SpanBuffer& spans,
                         std::vector<std::string>& failures) = 0;
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown workload name.
std::unique_ptr<Workload> make_workload(const Config& cfg);

}  // namespace perfbench

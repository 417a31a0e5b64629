#include "harness/prefetch_study.hpp"

#include "harness/plan.hpp"

namespace coperf::harness {

PrefetchSensitivity prefetch_sensitivity(std::string_view workload,
                                         const RunOptions& opt) {
  const PrefetchSpec spec{std::string{workload}, opt.threads};
  ExperimentPlan plan{opt};
  plan.add_prefetch(spec);
  return plan.execute().prefetch(spec);
}

}  // namespace coperf::harness

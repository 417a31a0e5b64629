#include "harness/matrix.hpp"

#include "harness/plan.hpp"

namespace coperf::harness {

PairClass CorunMatrix::pair_class(std::size_t i, std::size_t j) const {
  return classify_pair(normalized[i][j], normalized[j][i]);
}

CorunMatrix::ClassCounts CorunMatrix::count_classes() const {
  ClassCounts c;
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::size_t j = i; j < size(); ++j) {
      switch (pair_class(i, j)) {
        case PairClass::Harmony: ++c.harmony; break;
        case PairClass::VictimOffender: ++c.victim_offender; break;
        case PairClass::BothVictim: ++c.both_victim; break;
      }
    }
  }
  return c;
}

CorunMatrix corun_matrix(const MatrixOptions& opt) {
  // One plan holds the whole sweep: solo baselines (unless the caller
  // measured them) and all fg x bg cells, deduplicated against
  // anything the RunCache already knows.
  MatrixSpec spec;
  spec.subset = opt.subset;
  spec.reps = opt.reps;
  spec.solo_cycles = opt.solo_cycles;
  ExperimentPlan plan{opt.run};
  plan.add_matrix(spec);
  return plan.execute(opt.host_threads, {}, opt.schedule).matrix(spec);
}

}  // namespace coperf::harness

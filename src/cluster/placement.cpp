#include "cluster/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "harness/scheduler.hpp"
#include "predict/predicted_matrix.hpp"

namespace coperf::cluster {

PricedMachine ClusterView::cheapest_open(const JobSpec& job,
                                         const Pricer& pricer) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  PricedMachine best{machines(), {kInf, kInf}};
  const std::size_t open = open_count();
  for (std::size_t k = 0; k < open; ++k) {
    const std::size_t m = kth_open(k);
    const Price p = pricer.price(job, view(m));
    if (p < best.price) best = {m, p};
  }
  return best;
}

std::size_t RandomPolicy::place(const JobSpec& job,
                                const ClusterView& cluster) {
  (void)job;
  const std::size_t open = cluster.open_count();
  if (open == 0)
    throw std::logic_error{"RandomPolicy::place: no machine has a free slot"};
  return cluster.kth_open(rng_.below(open));
}

CostModelPolicy::CostModelPolicy(std::string name, harness::CorunMatrix estimate)
    : estimate_(std::move(estimate)), name_(std::move(name)) {
  if (estimate_.size() == 0)
    throw std::invalid_argument{"CostModelPolicy: empty estimate matrix"};
}

double placement_delta(const harness::CorunMatrix& est, std::size_t job_type,
                       double job_work, const MachineView& machine) {
  // harness::corun_slowdown inlined over the resident views so the hot
  // path allocates nothing; arithmetic is kept identical (sum the
  // excesses, clamp at 1.0).
  double excess = 0.0;
  for (const ResidentView& r : machine.residents)
    excess += est.at(job_type, r.type) - 1.0;
  double delta = (std::max(1.0, 1.0 + excess) - 1.0) * job_work;
  for (const ResidentView& r : machine.residents)
    delta += (est.at(r.type, job_type) - 1.0) * r.remaining;
  return delta;
}

namespace {

/// slo_pricer's formula over any tail: tail(fg, skip, with_job) is
/// fg's tail slowdown against the residents but residents[skip], plus
/// the job if with_job.
template <class Tail>
double violation(const JobSpec& job, const MachineView& machine, Tail tail) {
  double viol = 0.0;
  if (job.latency_critical())
    viol += std::max(0.0, tail(job.type, machine.residents.size(), false) -
                              job.slo_p99) *
            job.work;
  for (std::size_t i = 0; i < machine.residents.size(); ++i) {
    const ResidentView& r = machine.residents[i];
    if (r.slo_target > 0.0)
      viol += std::max(0.0, tail(r.type, i, true) - r.slo_target) *
              std::max(0.0, r.remaining);
  }
  return viol;
}

}  // namespace

Pricer truth_pricer(harness::InterferenceTruth& truth) {
  return {[&truth](const JobSpec& job, const MachineView& machine) {
            // Reused scratch: admission_delta takes vectors, and this
            // is priced per candidate machine per billed decision.
            static thread_local std::vector<std::size_t> types;
            static thread_local std::vector<double> remaining;
            types.clear();
            remaining.clear();
            for (const ResidentView& r : machine.residents) {
              types.push_back(r.type);
              remaining.push_back(std::max(0.0, r.remaining));
            }
            return Price{0.0, truth.admission_delta(job.type, job.work, types,
                                                    remaining)};
          },
          /*affine=*/true};
}

Pricer slo_pricer(harness::InterferenceTruth& truth) {
  return {[&truth](const JobSpec& job, const MachineView& machine) {
    static thread_local std::vector<std::size_t> others;
    const auto tail = [&](std::size_t fg, std::size_t skip, bool with_job) {
      others.clear();
      if (with_job) others.push_back(job.type);
      for (std::size_t j = 0; j < machine.residents.size(); ++j)
        if (j != skip) others.push_back(machine.residents[j].type);
      return truth.tail_slowdown(fg, others);
    };
    return Price{violation(job, machine, tail), 0.0};
  }};
}

GroupTruthPolicy::GroupTruthPolicy(std::string name,
                                   harness::InterferenceTruth& truth)
    : truth_(truth), name_(std::move(name)) {
  if (truth_.size() == 0)
    throw std::invalid_argument{"GroupTruthPolicy: empty truth"};
}

std::size_t GroupTruthPolicy::place(const JobSpec& job,
                                    const ClusterView& cluster) {
  if (job.type >= truth_.size())
    throw std::out_of_range{"GroupTruthPolicy::place: job type outside truth"};
  const PricedMachine best = cluster.cheapest_open(job, truth_pricer(truth_));
  if (best.machine == cluster.machines())
    throw std::logic_error{name_ + "::place: no machine has a free slot"};
  last_delta_ = best.price.delta;
  return best.machine;
}

std::size_t CostModelPolicy::place(const JobSpec& job,
                                   const ClusterView& cluster) {
  if (job.type >= estimate_.size())
    throw std::out_of_range{"CostModelPolicy::place: job type outside matrix"};
  const PricedMachine best = cluster.cheapest_open(
      job, {[this](const JobSpec& j, const MachineView& v) {
              return Price{0.0, placement_delta(estimate_, j.type, j.work, v)};
            },
            /*affine=*/true});
  if (best.machine == cluster.machines())
    throw std::logic_error{name_ + "::place: no machine has a free slot"};
  last_delta_ = best.price.delta;
  return best.machine;
}

SloAwarePolicy::SloAwarePolicy(std::string name,
                               harness::CorunMatrix throughput,
                               harness::CorunMatrix tail)
    : throughput_(std::move(throughput)),
      tail_(std::move(tail)),
      name_(std::move(name)) {
  if (throughput_.size() == 0)
    throw std::invalid_argument{"SloAwarePolicy: empty throughput matrix"};
  if (tail_.size() != throughput_.size())
    throw std::invalid_argument{
        "SloAwarePolicy: tail/throughput axis size mismatch"};
}

std::size_t SloAwarePolicy::place(const JobSpec& job,
                                  const ClusterView& cluster) {
  if (job.type >= throughput_.size())
    throw std::out_of_range{"SloAwarePolicy::place: job type outside matrix"};
  // Predicted SLO violation from the additively composed tail matrix,
  // then the predicted throughput delta.
  const PricedMachine best = cluster.cheapest_open(
      job, {[this](const JobSpec& j, const MachineView& v) {
        const auto tail = [&](std::size_t fg, std::size_t skip, bool with_job) {
          double excess = 0.0;
          for (std::size_t r = 0; r < v.residents.size(); ++r)
            if (r != skip) excess += tail_.at(fg, v.residents[r].type) - 1.0;
          if (with_job) excess += tail_.at(fg, j.type) - 1.0;
          return std::max(1.0, 1.0 + excess);
        };
        return Price{violation(j, v, tail),
                     placement_delta(throughput_, j.type, j.work, v)};
      }});
  if (best.machine == cluster.machines())
    throw std::logic_error{name_ + "::place: no machine has a free slot"};
  last_delta_ = best.price.delta;
  if (best.price.violation > 0.0) ++forced_;
  return best.machine;
}

OnlineRefinedPolicy::OnlineRefinedPolicy(
    std::string name, std::unique_ptr<predict::InterferenceModel> model,
    std::vector<predict::WorkloadSignature> sigs)
    : CostModelPolicy(std::move(name),
                      predict::predicted_matrix(sigs, *model)),
      model_(std::move(model)),
      sigs_(std::move(sigs)),
      observed_(sigs_.size(),
                std::vector<double>(sigs_.size(),
                                    std::numeric_limits<double>::quiet_NaN())),
      decon_(sigs_.size()) {
  // Deconvolution starts from the model's predictions, not from
  // zero-knowledge harmony: an early, under-determined group equation
  // then adjusts a calibrated estimate instead of replacing it.
  decon_.seed_prior(estimate_);
}

std::size_t OnlineRefinedPolicy::place(const JobSpec& job,
                                       const ClusterView& cluster) {
  refresh_unobserved();
  return CostModelPolicy::place(job, cluster);
}

void OnlineRefinedPolicy::observe_pair(std::size_t fg_type,
                                       std::size_t bg_type, double slowdown) {
  if (fg_type >= sigs_.size() || bg_type >= sigs_.size())
    throw std::out_of_range{"OnlineRefinedPolicy: observed type outside matrix"};
  double& seen = observed_[fg_type][bg_type];
  if (seen == slowdown) return;  // an exact repeat teaches nothing
  if (std::isnan(seen)) ++observed_count_;
  seen = slowdown;
  model_->observe({sigs_[fg_type], sigs_[bg_type], slowdown});
  // Measured fallback: the observed cell becomes ground truth now; the
  // remaining cells are re-predicted lazily at the next placement, so
  // a burst of observations costs one refresh, not one per pair.
  estimate_.normalized[fg_type][bg_type] = std::max(1.0, slowdown);
  estimate_stale_ = true;
}

void OnlineRefinedPolicy::observe_group(const std::vector<std::size_t>& types,
                                        const std::vector<double>& slowdowns) {
  if (types.size() != slowdowns.size())
    throw std::invalid_argument{
        "OnlineRefinedPolicy: group types/slowdowns size mismatch"};
  if (types.size() <= 2) {
    // A 2-resident outcome is two exact pair samples: the measured
    // fallback + model observe() path.
    CostModelPolicy::observe_group(types, slowdowns);
    return;
  }
  // 3+-resident outcome: one deconvolution equation per member. The
  // signature-copying TrainingGroup is only built for models that
  // actually absorb group samples (none of the shipped ones do).
  const bool feed_model = model_->wants_group_samples();
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (types[i] >= sigs_.size())
      throw std::out_of_range{
          "OnlineRefinedPolicy: observed type outside matrix"};
    const std::vector<std::size_t> others =
        harness::others_excluding(types, i);
    decon_.observe(types[i], others, slowdowns[i]);
    if (feed_model) {
      predict::TrainingGroup g;
      g.fg = sigs_[types[i]];
      for (const std::size_t o : others) g.others.push_back(sigs_[o]);
      g.slowdown = slowdowns[i];
      model_->observe_group(g);
    }
  }
  estimate_stale_ = true;
}

std::size_t OnlineRefinedPolicy::deconvolved_cells() const {
  std::size_t cells = 0;
  for (std::size_t i = 0; i < sigs_.size(); ++i)
    for (std::size_t j = 0; j < sigs_.size(); ++j)
      if (std::isnan(observed_[i][j]) && decon_.support(i, j) > 0) ++cells;
  return cells;
}

void OnlineRefinedPolicy::refresh_unobserved() {
  if (!estimate_stale_) return;
  // Priority per cell: direct pair observation (pinned, skipped here)
  // > deconvolved estimate from 3+-resident outcomes > model
  // prediction.
  for (std::size_t i = 0; i < sigs_.size(); ++i)
    for (std::size_t j = 0; j < sigs_.size(); ++j)
      if (std::isnan(observed_[i][j]))
        estimate_.normalized[i][j] =
            decon_.support(i, j) > 0
                ? decon_.entry(i, j)
                : std::max(1.0, model_->predict(sigs_[i], sigs_[j]));
  estimate_stale_ = false;
}

}  // namespace coperf::cluster

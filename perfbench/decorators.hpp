// Forwarding decorators that time the cluster and predict layers from
// outside the library. Each forwards every virtual call unchanged to
// the object it wraps and records a span around the calls the traced
// run reports on; results, and therefore the simulator's audit log,
// are byte-identical to an undecorated run (tests/helpers_test.cpp
// pins that).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "harness/grouptruth.hpp"
#include "predict/model.hpp"
#include "spans.hpp"

namespace perfbench {

/// What the cluster decorators count besides their spans.
struct ClusterCounters {
  std::uint64_t decisions = 0;
  std::uint64_t views = 0;         ///< ClusterView::view calls inside place
  std::uint64_t open_total = 0;    ///< Σ open_count() at each decision
  std::uint64_t truth_queries = 0;
};

/// The ClusterView a decorated policy hands its inner policy: counts
/// the machines the policy prices.
class CountingView final : public coperf::cluster::ClusterView {
 public:
  CountingView(const coperf::cluster::ClusterView& inner,
               ClusterCounters& counters)
      : inner_(inner), counters_(counters) {}

  std::size_t machines() const override { return inner_.machines(); }
  std::size_t open_count() const override { return inner_.open_count(); }
  std::size_t kth_open(std::size_t k) const override {
    return inner_.kth_open(k);
  }
  std::size_t free_slots(std::size_t m) const override {
    return inner_.free_slots(m);
  }
  const coperf::cluster::MachineView& view(std::size_t m) const override {
    ++counters_.views;
    return inner_.view(m);
  }

 private:
  const coperf::cluster::ClusterView& inner_;
  ClusterCounters& counters_;
};

/// Times place() ("cluster.place", request = job id) and
/// observe_group() ("predict.observe_group").
class TracedPolicy final : public coperf::cluster::PlacementPolicy {
 public:
  TracedPolicy(coperf::cluster::PlacementPolicy& inner, SpanBuffer& spans,
               ClusterCounters& counters)
      : inner_(inner), spans_(spans), counters_(counters) {}

  std::string name() const override { return inner_.name(); }
  using PlacementPolicy::place;
  std::size_t place(const coperf::cluster::JobSpec& job,
                    const coperf::cluster::ClusterView& cluster) override {
    ++counters_.decisions;
    counters_.open_total += cluster.open_count();
    const CountingView view{cluster, counters_};
    const Scope s{spans_, "cluster.place", Layer::Cluster, job.id};
    return inner_.place(job, view);
  }
  void observe_pair(std::size_t fg, std::size_t bg, double slowdown) override {
    inner_.observe_pair(fg, bg, slowdown);
  }
  void observe_group(const std::vector<std::size_t>& types,
                     const std::vector<double>& slowdowns) override {
    const Scope s{spans_, "predict.observe_group", Layer::Predict};
    inner_.observe_group(types, slowdowns);
  }
  double last_cost_delta() const override { return inner_.last_cost_delta(); }

 private:
  coperf::cluster::PlacementPolicy& inner_;
  SpanBuffer& spans_;
  ClusterCounters& counters_;
};

/// Times every ground-truth query ("harness.truth_query"). Its own
/// fallbacks() stays 0: read fallbacks from an undecorated run.
class TracedTruth final : public coperf::harness::InterferenceTruth {
 public:
  TracedTruth(coperf::harness::InterferenceTruth& inner, SpanBuffer& spans,
              ClusterCounters& counters)
      : inner_(inner), spans_(spans), counters_(counters) {}

  std::size_t size() const override { return inner_.size(); }
  double slowdown(std::size_t type,
                  const std::vector<std::size_t>& others) override {
    const Scope s = open();
    return inner_.slowdown(type, others);
  }
  double tail_slowdown(std::size_t type,
                       const std::vector<std::size_t>& others) override {
    const Scope s = open();
    return inner_.tail_slowdown(type, others);
  }
  const coperf::harness::CorunMatrix& pairwise() override {
    const Scope s = open();
    return inner_.pairwise();
  }
  double pair_entry(std::size_t fg, std::size_t bg) override {
    const Scope s = open();
    return inner_.pair_entry(fg, bg);
  }
  double admission_delta(std::size_t job_type, double job_work,
                         const std::vector<std::size_t>& residents,
                         const std::vector<double>& remaining) override {
    const Scope s = open();
    return inner_.admission_delta(job_type, job_work, residents, remaining);
  }

 private:
  Scope open() {
    ++counters_.truth_queries;
    return Scope{spans_, "harness.truth_query", Layer::Harness};
  }

  coperf::harness::InterferenceTruth& inner_;
  SpanBuffer& spans_;
  ClusterCounters& counters_;
};

/// Times predict_group ("predict.predict_group") on a wrapped model.
class TracedModel final : public coperf::predict::InterferenceModel {
 public:
  TracedModel(const coperf::predict::InterferenceModel& inner,
              SpanBuffer& spans)
      : inner_(inner), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  double predict(const coperf::predict::WorkloadSignature& fg,
                 const coperf::predict::WorkloadSignature& bg) const override {
    return inner_.predict(fg, bg);
  }
  double predict_group(
      const coperf::predict::WorkloadSignature& fg,
      const std::vector<coperf::predict::WorkloadSignature>& others)
      const override {
    const Scope s{spans_, "predict.predict_group", Layer::Predict};
    return inner_.predict_group(fg, others);
  }
  bool wants_group_samples() const override {
    return inner_.wants_group_samples();
  }
  void save(std::ostream& os) const override { inner_.save(os); }
  void load(std::istream&) override {
    throw std::logic_error{"TracedModel wraps a read-only model"};
  }

 private:
  const coperf::predict::InterferenceModel& inner_;
  SpanBuffer& spans_;
};

}  // namespace perfbench

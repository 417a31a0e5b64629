#include "cluster/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coperf::cluster {

namespace detail {

MachineSet::MachineSet(std::size_t n)
    : n_(n),
      words_((n + 63) / 64, 0),
      summary_((words_.size() + 63) / 64, 0),
      counts_(words_.size(), 0),
      blocks_(summary_.size(), 0) {}

void MachineSet::insert(std::size_t i) {
  std::uint64_t& w = words_[i >> 6];
  const std::uint64_t b = 1ull << (i & 63);
  if (w & b) return;
  w |= b;
  summary_[i >> 12] |= 1ull << ((i >> 6) & 63);
  ++counts_[i >> 6];
  ++blocks_[i >> 12];
  ++count_;
}

void MachineSet::erase(std::size_t i) {
  std::uint64_t& w = words_[i >> 6];
  const std::uint64_t b = 1ull << (i & 63);
  if (!(w & b)) return;
  w &= ~b;
  if (!w) summary_[i >> 12] &= ~(1ull << ((i >> 6) & 63));
  --counts_[i >> 6];
  --blocks_[i >> 12];
  --count_;
}

std::size_t MachineSet::next(std::size_t from) const {
  if (from >= n_) return n_;
  std::size_t wi = from >> 6;
  if (const std::uint64_t w = words_[wi] & (~0ull << (from & 63)))
    return (wi << 6) + static_cast<std::size_t>(std::countr_zero(w));
  if (++wi == words_.size()) return n_;
  std::size_t si = wi >> 6;
  std::uint64_t s = summary_[si] & (~0ull << (wi & 63));
  while (!s) {
    if (++si == summary_.size()) return n_;
    s = summary_[si];
  }
  wi = (si << 6) + static_cast<std::size_t>(std::countr_zero(s));
  return (wi << 6) + static_cast<std::size_t>(std::countr_zero(words_[wi]));
}

std::size_t MachineSet::select(std::size_t k) const {
  if (k >= count_) return n_;
  std::size_t bi = 0;
  while (k >= blocks_[bi]) k -= blocks_[bi++];
  std::size_t wi = bi << 6;
  while (k >= counts_[wi]) k -= counts_[wi++];
  std::uint64_t w = words_[wi];
  for (; k > 0; --k) w &= w - 1;  // drop the k lowest members
  return (wi << 6) + static_cast<std::size_t>(std::countr_zero(w));
}

}  // namespace detail

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Simulated-time scale on the trace: 1 unit of work = 1 ms displayed.
constexpr double kTraceUsPerUnit = 1000.0;

void validate(const ClusterConfig& cfg, const harness::InterferenceTruth& truth,
              const std::vector<JobSpec>& trace, bool fleet_engine) {
  if (cfg.machines == 0)
    throw std::invalid_argument{"simulate: need at least one machine"};
  if (cfg.slots < 2)
    throw std::invalid_argument{"simulate: co-run machines need >= 2 slots"};
  if (truth.size() == 0)
    throw std::invalid_argument{"simulate: empty ground truth"};
  double prev = 0.0;
  for (const JobSpec& j : trace) {
    if (j.type >= truth.size())
      throw std::invalid_argument{"simulate: job type outside the truth axis"};
    if (j.work <= 0.0)
      throw std::invalid_argument{"simulate: job work must be positive"};
    if (j.arrival < prev)
      throw std::invalid_argument{"simulate: arrivals must be sorted"};
    if (j.priority > kMaxPriority)
      throw std::invalid_argument{"simulate: job priority above kMaxPriority"};
    if (j.slo_p99 < 0.0)
      throw std::invalid_argument{"simulate: job slo_p99 must be >= 0"};
    if (!fleet_engine && j.priority != 0)
      throw std::invalid_argument{
          "simulate_reference: the reference loop is priority-blind"};
    if (!fleet_engine && j.latency_critical())
      throw std::invalid_argument{
          "simulate_reference: the reference loop is SLO-blind"};
    prev = j.arrival;
  }
  if (!fleet_engine) {
    if (!cfg.faults.empty() || cfg.migration.preempt || cfg.admission.enabled())
      throw std::invalid_argument{
          "simulate_reference: the reference loop is fault-blind (no fault "
          "schedule, migration, or admission control)"};
    return;
  }
  double prev_fault = 0.0;
  std::vector<char> down(cfg.machines, 0);
  for (const FaultEvent& f : cfg.faults) {
    if (f.machine >= cfg.machines)
      throw std::invalid_argument{"simulate: fault event machine out of range"};
    if (f.time < prev_fault)
      throw std::invalid_argument{"simulate: fault events must be sorted"};
    const bool is_down = f.kind == FaultEvent::Kind::Down;
    if (is_down == static_cast<bool>(down[f.machine]))
      throw std::invalid_argument{
          "simulate: fault events must alternate Down/Up per machine"};
    down[f.machine] = is_down ? 1 : 0;
    prev_fault = f.time;
  }
  if (cfg.retry.backoff < 0.0 || cfg.retry.backoff_factor < 1.0)
    throw std::invalid_argument{
        "simulate: retry backoff must be >= 0 with factor >= 1"};
  if (cfg.retry.checkpoint < 0.0 || cfg.retry.checkpoint > 1.0)
    throw std::invalid_argument{"simulate: retry checkpoint must be in [0, 1]"};
  if (cfg.admission.util_limit < 0.0 || cfg.admission.util_limit > 1.0)
    throw std::invalid_argument{
        "simulate: admission util_limit must be in [0, 1]"};
  if (cfg.admission.defer_delay < 0.0)
    throw std::invalid_argument{"simulate: admission defer_delay must be >= 0"};
}

// --- indexed fleet engine -------------------------------------------

/// One running job in the indexed engine. `remaining` is materialized
/// as of the owning machine's `upd` time; `slowdown` and `eta` are
/// valid for the machine's current resident multiset.
struct Resident {
  std::size_t job = 0;   ///< trace index
  std::size_t type = 0;
  double remaining = 0.0;
  double slowdown = 1.0;
  double eta = kInf;     ///< absolute completion estimate
  double slo = 0.0;      ///< JobSpec::slo_p99 (0 = best-effort)
};

struct MachineState {
  std::vector<Resident> residents;
  double upd = 0.0;           ///< time `remaining` values were materialized
  double next_eta = kInf;     ///< min resident eta (ties: lowest slot)
  std::size_t next_pos = 0;
};

/// Open machines (alive, not full) filed by resident multiset: the
/// candidate index behind EngineView. Empty machines form one class;
/// single-resident machines form one class per resident type, kept
/// both by id and ordered by the resident's cached completion ETA
/// (then id); machines with 2+ residents (only when slots >= 3) are
/// kept together and priced one by one.
class CandidateIndex {
 public:
  CandidateIndex(std::size_t machines, std::size_t types)
      : open_(machines),
        empty_(machines),
        multi_(machines),
        single_(types, detail::MachineSet(machines)),
        by_eta_(types),
        cls_(machines, kClosed),
        eta_(machines, 0.0) {}

  using EtaOrder = std::set<std::pair<double, std::size_t>>;

  /// Re-files machine m: out of the index unless `open`, else under
  /// the class of its (reindexed) residents.
  void refile(std::size_t m, bool open, const std::vector<Resident>& rs) {
    switch (const std::size_t c = cls_[m]) {
      case kClosed:
        break;
      case kEmpty:
        empty_.erase(m);
        break;
      case kMulti:
        multi_.erase(m);
        break;
      default:
        single_[c].erase(m);
        by_eta_[c].erase({eta_[m], m});
    }
    cls_[m] = kClosed;
    if (!open) {
      open_.erase(m);
      return;
    }
    open_.insert(m);
    if (rs.empty()) {
      cls_[m] = kEmpty;
      empty_.insert(m);
    } else if (rs.size() == 1) {
      cls_[m] = rs[0].type;
      eta_[m] = rs[0].eta;
      single_[rs[0].type].insert(m);
      by_eta_[rs[0].type].insert({rs[0].eta, m});
    } else {
      cls_[m] = kMulti;
      multi_.insert(m);
    }
  }

  const detail::MachineSet& open() const { return open_; }
  const detail::MachineSet& empty() const { return empty_; }
  const detail::MachineSet& multi() const { return multi_; }
  std::size_t types() const { return single_.size(); }
  /// Open machines whose only resident has type t, by id...
  const detail::MachineSet& single(std::size_t t) const { return single_[t]; }
  /// ...and as (eta, id) pairs in ascending order.
  const EtaOrder& by_eta(std::size_t t) const { return by_eta_[t]; }

 private:
  static constexpr std::size_t kClosed = ~std::size_t{0};
  static constexpr std::size_t kEmpty = kClosed - 1;
  static constexpr std::size_t kMulti = kClosed - 2;

  detail::MachineSet open_, empty_, multi_;
  std::vector<detail::MachineSet> single_;
  std::vector<EtaOrder> by_eta_;
  std::vector<std::size_t> cls_;  ///< kClosed/kEmpty/kMulti or the type
  std::vector<double> eta_;       ///< filing key of a single resident
};

/// A ~1e-9 relative ETA gap dwarfs the rounding (a few ulps of the
/// ETA) in both a cached ETA and view()'s remaining work, so a machine
/// whose ETA is further out by more than this has strictly more work
/// left in view() too.
constexpr double kEtaGuard = 1e-9;

/// The policies' window into the engine. Views materialize lazily and
/// are cached per event stamp; kth_open serves the ascending scans the
/// policies and the regret billing do in O(1) amortized per step, and
/// any other k by select().
class EngineView final : public ClusterView {
 public:
  EngineView(const std::vector<MachineState>& ms, const CandidateIndex& idx,
             std::size_t slots, const double& t, const std::uint64_t& stamp)
      : ms_(ms),
        idx_(idx),
        slots_(slots),
        t_(t),
        stamp_(stamp),
        views_(ms.size()),
        view_stamp_(ms.size(), 0) {}

  std::size_t machines() const override { return ms_.size(); }
  std::size_t open_count() const override { return idx_.open().size(); }

  std::size_t kth_open(std::size_t k) const override {
    const bool warm = scan_stamp_ == stamp_;
    if (warm && k == last_k_) return last_m_;
    const std::size_t m = warm && k == last_k_ + 1
                              ? idx_.open().next(last_m_ + 1)
                              : idx_.open().select(k);
    if (m >= ms_.size())
      throw std::out_of_range{"ClusterView::kth_open: index past open set"};
    scan_stamp_ = stamp_;
    last_k_ = k;
    last_m_ = m;
    return m;
  }

  /// Full and failed machines are exactly the ones outside the index.
  std::size_t free_slots(std::size_t m) const override {
    return idx_.open().contains(m) ? slots_ - ms_[m].residents.size() : 0;
  }

  const MachineView& view(std::size_t m) const override {
    MachineView& v = views_[m];
    if (view_stamp_[m] != stamp_) {
      const MachineState& s = ms_[m];
      v.free_slots = free_slots(m);
      v.residents.clear();
      for (const Resident& r : s.residents)
        v.residents.push_back(
            {r.type,
             std::max(0.0, r.remaining - (t_ - s.upd) / r.slowdown),
             r.slo});
      view_stamp_[m] = stamp_;
    }
    return v;
  }

  /// The scan's pick, pricing each class of the candidate index
  /// instead of every open machine. Machines of one single-resident
  /// class differ only in the resident's remaining work `rem`, and
  /// their delta is a + c * rem with c = est(type, job) - 1, monotone
  /// in rem -- hence in the cached ETA, since all of them progress at
  /// the same solo rate. Every candidate is priced by placement_delta
  /// itself, so the minimum (delta, id) is bit-identical to the scan.
  PricedMachine cheapest_open(const harness::CorunMatrix& est,
                              std::size_t job_type,
                              double job_work) const override {
    const std::size_t n = ms_.size();
    PricedMachine best{n, kInf};
    const auto price = [&](std::size_t m) {
      const double d = placement_delta(est, job_type, job_work, view(m));
      if (d < best.delta ||
          (d == best.delta && best.machine < n && m < best.machine))
        best = {m, d};
      return d;
    };
    // Walks one class in the order its delta rises, and stops past a
    // machine priced strictly above the best once the next ETA is
    // clearly further out: everything beyond prices at least as high.
    const auto walk = [&](auto it, const auto end, bool ascending) {
      while (it != end) {
        const double eta = it->first;
        const double d = price(it->second);
        if (++it == end) return;
        const double gap = kEtaGuard * std::abs(eta);
        if (d > best.delta &&
            (ascending ? it->first > eta + gap : it->first < eta - gap))
          return;
      }
    };
    // Empty machines, and members of a class whose coefficient is
    // exactly 0, all price the same: the lowest id stands for them.
    if (const std::size_t m = idx_.empty().next(0); m < n) price(m);
    for (std::size_t type = 0; type < idx_.types(); ++type) {
      const CandidateIndex::EtaOrder& order = idx_.by_eta(type);
      if (order.empty()) continue;
      const double c = est.at(type, job_type) - 1.0;
      if (c == 0.0)
        price(idx_.single(type).next(0));
      else if (c > 0.0)
        walk(order.begin(), order.end(), /*ascending=*/true);
      else
        walk(order.rbegin(), order.rend(), /*ascending=*/false);
    }
    const detail::MachineSet& multi = idx_.multi();
    for (std::size_t m = multi.next(0); m < n; m = multi.next(m + 1)) price(m);
    return best;
  }

 private:
  const std::vector<MachineState>& ms_;
  const CandidateIndex& idx_;
  std::size_t slots_;
  const double& t_;
  const std::uint64_t& stamp_;
  mutable std::vector<MachineView> views_;
  mutable std::vector<std::uint64_t> view_stamp_;
  mutable std::uint64_t scan_stamp_ = 0;
  mutable std::size_t last_k_ = 0;
  mutable std::size_t last_m_ = 0;
};

/// Busy machines by earliest completion: an indexed binary min-heap
/// with one entry per machine, keyed (eta, machine) -- deterministic,
/// lowest machine first on ties -- and re-keyed in place when the
/// machine's resident set changes, so no stale entries pile up.
class CompletionHeap {
 public:
  explicit CompletionHeap(std::size_t machines) : pos_(machines, kAbsent) {}

  bool empty() const { return heap_.empty(); }
  double top_eta() const { return heap_.front().eta; }
  std::size_t top_machine() const { return heap_.front().machine; }

  /// Files machine m under `eta`; kInf (an idle machine) removes it.
  void update(std::size_t m, double eta) {
    std::size_t i = pos_[m];
    if (i == kAbsent) {
      if (eta == kInf) return;
      i = heap_.size();
      heap_.push_back({eta, m});
    } else if (eta == kInf) {
      pos_[m] = kAbsent;
      const Entry last = heap_.back();
      heap_.pop_back();
      if (i == heap_.size()) return;
      heap_[i] = last;
    } else {
      heap_[i].eta = eta;
    }
    sift_down(sift_up(i));
  }

 private:
  struct Entry {
    double eta;
    std::size_t machine;
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  static bool before(const Entry& a, const Entry& b) {
    return a.eta != b.eta ? a.eta < b.eta : a.machine < b.machine;
  }
  /// Moves heap_[i] up to its place; returns where it landed.
  std::size_t sift_up(std::size_t i) {
    const Entry e = heap_[i];
    for (; i > 0 && before(e, heap_[(i - 1) / 2]); i = (i - 1) / 2)
      put(i, heap_[(i - 1) / 2]);
    put(i, e);
    return i;
  }
  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    for (std::size_t c; (c = 2 * i + 1) < heap_.size(); i = c) {
      if (c + 1 < heap_.size() && before(heap_[c + 1], heap_[c])) ++c;
      if (!before(heap_[c], e)) break;
      put(i, heap_[c]);
    }
    put(i, e);
  }
  void put(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[e.machine] = i;
  }

  std::vector<Entry> heap_;
  std::vector<std::size_t> pos_;  ///< heap_ index per machine
};

/// A killed or deferred job waiting out its simulated-time delay before
/// re-entering the waiting lanes. Min-heap by (ready, jid) so
/// same-instant requeues drain in trace order.
struct Requeue {
  double ready = 0.0;
  std::size_t jid = 0;
  bool deferred = false;  ///< re-check admission control on re-entry
};
struct RequeueLater {
  bool operator()(const Requeue& a, const Requeue& b) const {
    if (a.ready != b.ready) return a.ready > b.ready;
    return a.jid > b.jid;
  }
};

}  // namespace

ClusterResult simulate(const ClusterConfig& cfg,
                       harness::InterferenceTruth& truth,
                       const std::vector<JobSpec>& trace,
                       PlacementPolicy& policy) {
  validate(cfg, truth, trace, /*fleet_engine=*/true);
  const std::uint64_t fallbacks_before = truth.fallbacks();

  std::vector<MachineState> machines(cfg.machines);
  std::vector<char> alive(cfg.machines, 1);
  CandidateIndex index(cfg.machines, truth.size());
  for (std::size_t m = 0; m < cfg.machines; ++m)
    index.refile(m, /*open=*/true, machines[m].residents);
  std::size_t alive_machines = cfg.machines;

  unsigned max_priority = 0;
  for (const JobSpec& j : trace) max_priority = std::max(max_priority, j.priority);
  std::vector<std::deque<std::size_t>> waiting(max_priority + 1);
  std::size_t waiting_count = 0;

  ClusterResult res;
  res.outcomes.resize(trace.size());
  // Does any job carry an SLO budget? When not, the LC billing below
  // is skipped entirely -- no tail_slowdown queries are issued, so
  // batch-only runs are byte-identical to the pre-SLO engine.
  bool any_lc = false;
  for (const JobSpec& j : trace)
    if (j.latency_critical()) {
      any_lc = true;
      ++res.lc_jobs;
    }
  // Solo work a job still owes at its next placement: its full demand
  // until a failure kill or eviction applies the work-loss model.
  std::vector<double> pending(trace.size(), 0.0);
  std::vector<char> placed(trace.size(), 0);  // first placement recorded
  std::vector<double> class_regret(max_priority + 1, 0.0);
  std::vector<std::size_t> class_billed(max_priority + 1, 0);
  double t = 0.0;
  std::uint64_t stamp = 1;
  std::size_t next_arrival = 0;
  std::size_t running_count = 0;
  std::size_t decisions = 0;
  std::size_t next_fault = 0;

  CompletionHeap heap(cfg.machines);
  std::priority_queue<Requeue, std::vector<Requeue>, RequeueLater> requeue;
  EngineView cview{machines, index, cfg.slots, t, stamp};

  // Observability: a simulated-time timeline (own trace process per
  // run, so back-to-back policy sweeps do not overwrite each other's
  // lanes) plus registry counters. Everything is read-only over the
  // loop's state and branch-free when disabled.
  obs::Trace& tr = obs::Trace::instance();
  const bool traced = tr.enabled();
  const int trace_pid = traced ? tr.next_pid() : 0;
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& placements_ctr = reg.counter("cluster.placements");
  obs::Counter& completions_ctr = reg.counter("cluster.completions");
  obs::Counter& failures_ctr = reg.counter("cluster.failures");
  obs::Counter& recoveries_ctr = reg.counter("cluster.recoveries");
  obs::Counter& fault_kills_ctr = reg.counter("cluster.fault_kills");
  obs::Counter& retries_ctr = reg.counter("cluster.retries");
  obs::Counter& migrations_ctr = reg.counter("cluster.migrations");
  obs::Counter& shed_ctr = reg.counter("cluster.shed");
  if (traced) {
    tr.name_process(trace_pid, "cluster " + policy.name() + " (" +
                                   std::to_string(cfg.machines) + "x" +
                                   std::to_string(cfg.slots) +
                                   ", simulated time)");
    for (std::size_t m = 0; m < cfg.machines; ++m)
      tr.name_thread(trace_pid, static_cast<int>(m),
                     "machine " + std::to_string(m));
  }
  const auto type_label = [&](std::size_t type) -> std::string {
    if (type < cfg.type_names.size()) return cfg.type_names[type];
    std::string label{"t"};
    label += std::to_string(type);
    return label;
  };
  // Start of the current constant-resident-set interval, per machine.
  std::vector<double> lane_since(traced ? cfg.machines : 0, 0.0);
  // When the machine's current outage began (traced runs only).
  std::vector<double> down_since(traced ? cfg.machines : 0, 0.0);
  // Closes machine m's resident-set span at the current time `t`; call
  // BEFORE mutating its residents.
  const auto close_lane = [&](std::size_t m) {
    if (!traced) return;
    if (!machines[m].residents.empty() && t > lane_since[m]) {
      std::string label;
      for (const Resident& r : machines[m].residents) {
        if (!label.empty()) label += '+';
        label += type_label(r.type);
      }
      tr.complete(trace_pid, static_cast<int>(m), std::move(label),
                  lane_since[m] * kTraceUsPerUnit,
                  (t - lane_since[m]) * kTraceUsPerUnit,
                  obs::Args{}.set("residents", machines[m].residents.size())
                      .str());
    }
    lane_since[m] = t;
  };
  const auto emit_queue_depth = [&] {
    if (traced)
      tr.counter_at(trace_pid, "queue_depth", t * kTraceUsPerUnit,
                    static_cast<double>(waiting_count));
  };

  // Brings machine m's remaining-work accounting up to `t`: one
  // decrement per resident per constant-rate interval, clamped at zero
  // so completion arithmetic never leaves a negative residue.
  const auto materialize = [&](MachineState& ms) {
    if (ms.upd == t) return;
    for (Resident& r : ms.residents)
      r.remaining = std::max(0.0, r.remaining - (t - ms.upd) / r.slowdown);
    ms.upd = t;
  };

  // Scratch buffers reused across all truth queries and observations.
  std::vector<std::size_t> others_scratch, group_scratch;
  std::vector<double> gslow_scratch;

  // Re-derives machine m's cached rates after a resident-set change at
  // time `t` (call with `remaining` already materialized to `t`): one
  // truth query per resident, fresh ETAs, the machine re-keyed in the
  // completion heap and re-filed in the candidate index.
  const auto reindex = [&](std::size_t m) {
    MachineState& ms = machines[m];
    ms.next_eta = kInf;
    ms.next_pos = 0;
    for (std::size_t i = 0; i < ms.residents.size(); ++i) {
      others_scratch.clear();
      for (std::size_t j = 0; j < ms.residents.size(); ++j)
        if (j != i) others_scratch.push_back(ms.residents[j].type);
      ms.residents[i].slowdown =
          truth.slowdown(ms.residents[i].type, others_scratch);
    }
    for (std::size_t i = 0; i < ms.residents.size(); ++i) {
      Resident& r = ms.residents[i];
      r.eta = t + std::max(0.0, r.remaining) * r.slowdown;
      if (r.eta < ms.next_eta) {
        ms.next_eta = r.eta;
        ms.next_pos = i;
      }
    }
    heap.update(m, ms.residents.empty() ? kInf : ms.next_eta);
    index.refile(m, alive[m] && ms.residents.size() < cfg.slots,
                 ms.residents);
  };

  // --- graceful-degradation helpers (inert on a fault-free run) -------

  // Admission-control overload predicate: queue depth at the limit, or
  // busy share of the *alive* slot pool at the utilization limit. An
  // all-down fleet counts as overloaded.
  const auto overloaded = [&] {
    const AdmissionConfig& adm = cfg.admission;
    if (adm.queue_limit > 0 && waiting_count >= adm.queue_limit) return true;
    if (adm.util_limit > 0.0) {
      const double cap =
          static_cast<double>(alive_machines * cfg.slots);
      if (cap <= 0.0) return true;
      if (static_cast<double>(running_count) >= adm.util_limit * cap)
        return true;
    }
    return false;
  };

  // Drops a job for good: its outstanding solo work is the admission
  // delta of never running it, billed into shed_work / class stats.
  const auto shed_job = [&](std::size_t jid) {
    JobOutcome& out = res.outcomes[jid];
    out.shed = true;
    ++res.shed_jobs;
    res.shed_work += pending[jid];
    shed_ctr.add();
    res.log.events.push_back({TraceEvent::Kind::Shed, t, trace[jid].id,
                              trace[jid].type, 0, pending[jid]});
  };

  // Queues a job into its priority lane, re-checking admission control
  // when asked (fresh arrivals and deferred re-entries; failure retries
  // were already admitted and skip the check).
  const auto admit = [&](std::size_t jid, bool check_admission) {
    const JobSpec& job = trace[jid];
    JobOutcome& out = res.outcomes[jid];
    if (check_admission && cfg.admission.enabled() &&
        job.priority < cfg.admission.shed_below && overloaded()) {
      if (cfg.admission.defer_delay > 0.0 &&
          out.defers < cfg.admission.max_defers) {
        ++out.defers;
        const double until = t + cfg.admission.defer_delay;
        res.log.events.push_back(
            {TraceEvent::Kind::Defer, t, job.id, job.type, 0, until});
        requeue.push({until, jid, /*deferred=*/true});
      } else {
        shed_job(jid);
      }
      return;
    }
    waiting[job.priority].push_back(jid);
    ++waiting_count;
    emit_queue_depth();
  };

  // Applies the work-loss model to a resident killed at time `t` with
  // `remaining` solo work left in its current attempt (materialized),
  // then requeues it with exponential backoff -- or sheds it once its
  // retry budget is spent.
  const auto kill_resident = [&](std::size_t jid, double remaining,
                                 std::size_t m) {
    const double executed = pending[jid] - remaining;
    pending[jid] =
        std::max(0.0, pending[jid] - cfg.retry.checkpoint * executed);
    JobOutcome& out = res.outcomes[jid];
    ++res.fault_kills;
    fault_kills_ctr.add();
    if (out.retries >= cfg.retry.max_retries) {
      shed_job(jid);
      return;
    }
    ++out.retries;
    retries_ctr.add();
    const double delay =
        cfg.retry.backoff *
        std::pow(cfg.retry.backoff_factor,
                 static_cast<double>(out.retries - 1));
    res.log.events.push_back({TraceEvent::Kind::Evict, t, trace[jid].id,
                              trace[jid].type, m, pending[jid]});
    requeue.push({t + delay, jid, /*deferred=*/false});
  };

  const auto drain_waiting = [&] {
    while (waiting_count > 0) {
      if (index.open().size() == 0) {
        // Preemptive migration: let the highest waiting class claim a
        // slot from a strictly lower-priority resident (lowest class
        // first; ties to the lowest machine then slot). The victim
        // pays the work-loss restart penalty and requeues immediately
        // at the back of its own lane -- no backoff, it did nothing
        // wrong. Progress is guaranteed: every eviction is followed by
        // a strictly higher-priority placement.
        if (!cfg.migration.preempt) break;
        std::size_t top = 0;
        for (std::size_t c = waiting.size(); c-- > 0;) {
          if (!waiting[c].empty()) {
            top = c;
            break;
          }
        }
        std::size_t vm = cfg.machines, vs = 0;
        unsigned vprio = 0;
        for (std::size_t m = 0; m < cfg.machines; ++m) {
          for (std::size_t s = 0; s < machines[m].residents.size(); ++s) {
            const unsigned p = trace[machines[m].residents[s].job].priority;
            if (p >= top) continue;
            if (vm == cfg.machines || p < vprio) {
              vm = m;
              vs = s;
              vprio = p;
            }
          }
        }
        if (vm == cfg.machines) break;  // nothing strictly lower to evict
        MachineState& vms = machines[vm];
        const std::size_t vjid = vms.residents[vs].job;
        close_lane(vm);  // the resident set is about to change
        materialize(vms);
        const double vleft = vms.residents[vs].remaining;
        const double vexecuted = pending[vjid] - vleft;
        pending[vjid] = std::max(
            0.0, pending[vjid] - cfg.retry.checkpoint * vexecuted);
        vms.residents.erase(vms.residents.begin() +
                            static_cast<std::ptrdiff_t>(vs));
        reindex(vm);
        --running_count;
        ++stamp;
        ++res.migrations;
        migrations_ctr.add();
        ++res.outcomes[vjid].evictions;
        res.log.events.push_back({TraceEvent::Kind::Evict, t, trace[vjid].id,
                                  trace[vjid].type, vm, pending[vjid]});
        if (traced)
          tr.instant_at(trace_pid, static_cast<int>(vm),
                        "evict " + type_label(trace[vjid].type),
                        t * kTraceUsPerUnit,
                        obs::Args{}
                            .set("job", trace[vjid].id)
                            .set("for_class", top)
                            .set("work_left", pending[vjid])
                            .str());
        waiting[vprio].push_back(vjid);
        ++waiting_count;
        emit_queue_depth();
        continue;
      }
      std::size_t jid = 0;
      for (std::size_t c = waiting.size(); c-- > 0;) {
        if (!waiting[c].empty()) {
          jid = waiting[c].front();
          waiting[c].pop_front();
          --waiting_count;
          break;
        }
      }
      // The job demands only its outstanding work: identical to the
      // original spec until a kill or eviction shrinks it.
      JobSpec job = trace[jid];
      job.work = pending[jid];
      const std::size_t m = policy.place(job, cview);
      if (m >= cfg.machines || !index.open().contains(m))
        throw std::logic_error{"simulate: policy chose a full or down machine"};
      // Bill the decision at ground truth: how much worse was the
      // chosen machine than the best one actually available?
      const bool billed =
          cfg.regret_sample != 0 && decisions % cfg.regret_sample == 0;
      ++decisions;
      double chosen = 0.0, best = kInf;
      double lc_chosen = 0.0, lc_best = kInf;
      if (billed) {
        const detail::MachineSet& open = index.open();
        for (std::size_t v = open.next(0); v < cfg.machines;
             v = open.next(v + 1)) {
          const double d =
              placement_delta(truth, job.type, job.work, cview.view(v));
          if (v == m) chosen = d;
          best = std::min(best, d);
          // LC tail billing rides the same candidate scan: every billed
          // decision on an SLO-carrying trace pays for the true tail
          // violation it inflicts (a best-effort aggressor placed next
          // to a running LC job blows that job's p99, and this is the
          // decision that did it).
          if (any_lc) {
            const double lv = slo_violation(truth, job, cview.view(v));
            if (v == m) lc_chosen = lv;
            lc_best = std::min(lc_best, lv);
          }
        }
        res.mean_decision_regret += chosen - best;
        ++res.billed_decisions;
        class_regret[job.priority] += chosen - best;
        ++class_billed[job.priority];
        if (any_lc) {
          res.mean_lc_tail_regret += lc_chosen - lc_best;
          ++res.lc_billed_decisions;
          if (lc_chosen > 0.0) ++res.slo_violation_decisions;
        }
      }
      placements_ctr.add();
      if (traced) {
        obs::Args args;
        args.set("job", job.id)
            .set("policy", policy.name())
            .set("predicted_cost", policy.last_cost_delta());
        if (billed) args.set("true_cost", chosen).set("regret", chosen - best);
        if (billed && any_lc)
          args.set("lc_regret", lc_chosen - lc_best);
        args.set("queued_for", t - job.arrival);
        tr.instant_at(trace_pid, static_cast<int>(m),
                      "place " + type_label(job.type), t * kTraceUsPerUnit,
                      args.str());
      }
      // Report the full group outcome -- every member's true slowdown
      // in the machine's new resident group. The new job leads, so a
      // 2-resident group decomposes into the historical observe_pair
      // order; 3+-resident outcomes are what the deconvolving online
      // policy refines itself with.
      if (!machines[m].residents.empty()) {
        group_scratch.clear();
        group_scratch.push_back(job.type);
        for (const Resident& r : machines[m].residents)
          group_scratch.push_back(r.type);
        gslow_scratch.assign(group_scratch.size(), 1.0);
        if (group_scratch.size() == 2) {
          // Pair outcomes are raw 2-resident entries -- unclamped,
          // exactly the feedback the legacy loop reported.
          gslow_scratch[0] = truth.pair_entry(group_scratch[0], group_scratch[1]);
          gslow_scratch[1] = truth.pair_entry(group_scratch[1], group_scratch[0]);
        } else {
          for (std::size_t i = 0; i < group_scratch.size(); ++i)
            gslow_scratch[i] = truth.slowdown(
                group_scratch[i], harness::others_excluding(group_scratch, i));
        }
        policy.observe_group(group_scratch, gslow_scratch);
      }
      close_lane(m);  // the resident set is about to change
      materialize(machines[m]);
      machines[m].residents.push_back(
          {jid, job.type, job.work, 1.0, kInf, job.slo_p99});
      reindex(m);
      ++running_count;
      ++stamp;
      JobOutcome& out = res.outcomes[jid];
      out.machine = m;
      if (!placed[jid]) {
        placed[jid] = 1;
        out.start = t;
      }
      res.log.events.push_back({TraceEvent::Kind::Place, t, job.id, job.type,
                                m, policy.last_cost_delta()});
      emit_queue_depth();
    }
  };

  while (next_arrival < trace.size() || running_count > 0 ||
         waiting_count > 0 || !requeue.empty()) {
    // Earliest completion; ties resolve to the lowest machine then
    // slot, deterministically.
    const double t_done = heap.empty() ? kInf : heap.top_eta();
    const std::size_t done_m = heap.empty() ? 0 : heap.top_machine();
    const double t_arr =
        next_arrival < trace.size() ? trace[next_arrival].arrival : kInf;
    const double t_fault =
        next_fault < cfg.faults.size() ? cfg.faults[next_fault].time : kInf;
    const double t_req = requeue.empty() ? kInf : requeue.top().ready;
    if (t_done == kInf && t_arr == kInf && t_fault == kInf && t_req == kInf)
      throw std::logic_error{"simulate: stuck with waiting jobs"};

    // Completions first on ties: a freed slot should serve a job
    // arriving at the same instant, and a job finishing as its machine
    // dies finished. Then faults (a same-instant recovery frees slots
    // before requeues and arrivals queue), then requeues before
    // arrivals (an old job re-enters its lane ahead of a newcomer).
    if (t_done <= t_arr && t_done <= t_fault && t_done <= t_req) {
      t = t_done;
      ++stamp;
      MachineState& ms = machines[done_m];
      const std::size_t pos = ms.next_pos;
      const std::size_t jid = ms.residents[pos].job;
      close_lane(done_m);  // the resident set is about to change
      completions_ctr.add();
      materialize(ms);
      ms.residents.erase(ms.residents.begin() +
                         static_cast<std::ptrdiff_t>(pos));
      reindex(done_m);
      --running_count;
      JobOutcome& out = res.outcomes[jid];
      out.finish = t;
      res.log.events.push_back({TraceEvent::Kind::Finish, t, trace[jid].id,
                                out.type, done_m, out.corun_slowdown()});
    } else if (t_fault <= t_arr && t_fault <= t_req) {
      const FaultEvent& f = cfg.faults[next_fault];
      ++next_fault;
      t = f.time;
      ++stamp;
      if (f.kind == FaultEvent::Kind::Down) {
        MachineState& ms = machines[f.machine];
        close_lane(f.machine);  // the resident set is about to change
        materialize(ms);
        ++res.failures;
        failures_ctr.add();
        res.log.events.push_back(
            {TraceEvent::Kind::Fail, t, 0, 0, f.machine, 0.0});
        for (const Resident& r : ms.residents)
          kill_resident(r.job, r.remaining, f.machine);
        running_count -= ms.residents.size();
        ms.residents.clear();
        alive[f.machine] = 0;
        --alive_machines;
        reindex(f.machine);  // empty: leaves the heap and the index
        if (traced) down_since[f.machine] = t;
      } else {
        ++res.recoveries;
        recoveries_ctr.add();
        res.log.events.push_back(
            {TraceEvent::Kind::Recover, t, 0, 0, f.machine, 0.0});
        alive[f.machine] = 1;
        ++alive_machines;
        reindex(f.machine);  // empty: rejoins the index
        if (traced) {
          tr.complete(trace_pid, static_cast<int>(f.machine), "DOWN",
                      down_since[f.machine] * kTraceUsPerUnit,
                      (t - down_since[f.machine]) * kTraceUsPerUnit,
                      obs::Args{}.set("machine", f.machine).str());
          lane_since[f.machine] = t;
        }
      }
    } else if (t_req <= t_arr) {
      const Requeue rq = requeue.top();
      requeue.pop();
      t = rq.ready;
      ++stamp;
      admit(rq.jid, /*check_admission=*/rq.deferred);
    } else {
      const JobSpec& job = trace[next_arrival];
      t = t_arr;
      ++stamp;
      res.log.events.push_back(
          {TraceEvent::Kind::Arrive, t, job.id, job.type, 0, 0.0});
      JobOutcome& out = res.outcomes[next_arrival];
      out.job = job.id;
      out.type = job.type;
      out.arrival = job.arrival;
      out.work = job.work;
      pending[next_arrival] = job.work;
      admit(next_arrival, /*check_admission=*/true);
      ++next_arrival;
    }
    drain_waiting();
  }

  res.class_stats.assign(max_priority + 1, ClassStats{});
  if (!res.outcomes.empty()) {
    for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
      const JobOutcome& o = res.outcomes[i];
      ClassStats& cs = res.class_stats[trace[i].priority];
      ++cs.jobs;
      cs.work_arrived += o.work;
      if (o.completed()) {
        ++cs.completed;
        ++res.completed_jobs;
        cs.work_completed += o.work;
        cs.mean_stretch += o.stretch();
        res.mean_stretch += o.stretch();
        res.mean_corun_slowdown += o.corun_slowdown();
        res.makespan = std::max(res.makespan, o.finish);
      }
      if (o.shed) ++cs.shed;
    }
    if (res.completed_jobs > 0) {
      res.mean_stretch /= static_cast<double>(res.completed_jobs);
      res.mean_corun_slowdown /= static_cast<double>(res.completed_jobs);
    }
    for (unsigned c = 0; c <= max_priority; ++c) {
      ClassStats& cs = res.class_stats[c];
      if (cs.completed > 0)
        cs.mean_stretch /= static_cast<double>(cs.completed);
      if (res.makespan > 0.0) cs.goodput = cs.work_completed / res.makespan;
      cs.billed = class_billed[c];
      if (cs.billed > 0)
        cs.mean_regret = class_regret[c] / static_cast<double>(cs.billed);
      reg.gauge("cluster.goodput.p" + std::to_string(c)).set(cs.goodput);
    }
  }
  if (res.billed_decisions > 0)
    res.mean_decision_regret /= static_cast<double>(res.billed_decisions);
  if (res.lc_billed_decisions > 0)
    res.mean_lc_tail_regret /= static_cast<double>(res.lc_billed_decisions);
  res.pairwise_fallbacks = truth.fallbacks() - fallbacks_before;
  return res;
}

ClusterResult simulate(const ClusterConfig& cfg,
                       const harness::CorunMatrix& truth,
                       const std::vector<JobSpec>& trace,
                       PlacementPolicy& policy) {
  harness::MatrixTruth additive{truth};
  return simulate(cfg, additive, trace, policy);
}

// --- reference engine (the executable specification) ----------------

namespace {

struct Running {
  std::size_t job = 0;
  double remaining = 0.0;  ///< solo-time units still to execute
};

}  // namespace

ClusterResult simulate_reference(const ClusterConfig& cfg,
                                 harness::InterferenceTruth& truth,
                                 const std::vector<JobSpec>& trace,
                                 PlacementPolicy& policy) {
  validate(cfg, truth, trace, /*fleet_engine=*/false);
  const std::uint64_t fallbacks_before = truth.fallbacks();

  std::vector<std::vector<Running>> machines(cfg.machines);
  std::deque<std::size_t> waiting;  // arrived, not yet placed (FIFO)
  ClusterResult res;
  res.outcomes.resize(trace.size());
  double t = 0.0;
  std::size_t next_arrival = 0;
  std::size_t running_count = 0;

  obs::Trace& tr = obs::Trace::instance();
  const bool traced = tr.enabled();
  const int trace_pid = traced ? tr.next_pid() : 0;
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& placements_ctr = reg.counter("cluster.placements");
  obs::Counter& completions_ctr = reg.counter("cluster.completions");
  if (traced) {
    tr.name_process(trace_pid, "cluster " + policy.name() + " (" +
                                   std::to_string(cfg.machines) + "x" +
                                   std::to_string(cfg.slots) +
                                   ", simulated time, reference)");
    for (std::size_t m = 0; m < cfg.machines; ++m)
      tr.name_thread(trace_pid, static_cast<int>(m),
                     "machine " + std::to_string(m));
  }
  const auto type_label = [&](std::size_t type) -> std::string {
    if (type < cfg.type_names.size()) return cfg.type_names[type];
    std::string label{"t"};
    label += std::to_string(type);
    return label;
  };
  std::vector<double> lane_since(cfg.machines, 0.0);
  const auto close_lane = [&](std::size_t m) {
    if (!traced) return;
    if (!machines[m].empty() && t > lane_since[m]) {
      std::string label;
      for (const Running& r : machines[m]) {
        if (!label.empty()) label += '+';
        label += type_label(trace[r.job].type);
      }
      tr.complete(trace_pid, static_cast<int>(m), std::move(label),
                  lane_since[m] * kTraceUsPerUnit,
                  (t - lane_since[m]) * kTraceUsPerUnit,
                  obs::Args{}.set("residents", machines[m].size()).str());
    }
    lane_since[m] = t;
  };
  const auto emit_queue_depth = [&] {
    if (traced)
      tr.counter_at(trace_pid, "queue_depth", t * kTraceUsPerUnit,
                    static_cast<double>(waiting.size()));
  };

  // Current slowdown of one resident: the truth oracle's answer for
  // its co-resident group (measured when the truth holds the group,
  // additive pairwise composition otherwise).
  const auto slowdown_of = [&](std::size_t m, std::size_t slot) {
    std::vector<std::size_t> others;
    others.reserve(machines[m].size());
    for (std::size_t s = 0; s < machines[m].size(); ++s)
      if (s != slot) others.push_back(trace[machines[m][s].job].type);
    return truth.slowdown(trace[machines[m][slot].job].type, others);
  };

  const auto drain_waiting = [&] {
    while (!waiting.empty()) {
      std::vector<MachineView> views(cfg.machines);
      bool any_free = false;
      for (std::size_t m = 0; m < cfg.machines; ++m) {
        views[m].free_slots = cfg.slots - machines[m].size();
        any_free = any_free || views[m].free_slots > 0;
        for (const Running& r : machines[m])
          views[m].residents.push_back(
              {trace[r.job].type, std::max(0.0, r.remaining)});
      }
      if (!any_free) return;
      const std::size_t jid = waiting.front();
      waiting.pop_front();
      const JobSpec& job = trace[jid];
      const std::size_t m = policy.place(job, views);
      if (m >= cfg.machines || machines[m].size() >= cfg.slots)
        throw std::logic_error{"simulate: policy chose a full machine"};
      double chosen = 0.0, best = kInf;
      for (std::size_t v = 0; v < views.size(); ++v) {
        if (views[v].free_slots == 0) continue;
        const double d = placement_delta(truth, job.type, job.work, views[v]);
        if (v == m) chosen = d;
        best = std::min(best, d);
      }
      res.mean_decision_regret += chosen - best;
      placements_ctr.add();
      if (traced)
        tr.instant_at(trace_pid, static_cast<int>(m),
                      "place " + type_label(job.type), t * kTraceUsPerUnit,
                      obs::Args{}
                          .set("job", job.id)
                          .set("policy", policy.name())
                          .set("predicted_cost", policy.last_cost_delta())
                          .set("true_cost", chosen)
                          .set("regret", chosen - best)
                          .set("queued_for", t - job.arrival)
                          .str());
      if (!machines[m].empty()) {
        std::vector<std::size_t> group;
        group.reserve(machines[m].size() + 1);
        group.push_back(job.type);
        for (const Running& r : machines[m])
          group.push_back(trace[r.job].type);
        std::vector<double> slowdowns(group.size(), 1.0);
        if (group.size() == 2) {
          slowdowns[0] = truth.pair_entry(group[0], group[1]);
          slowdowns[1] = truth.pair_entry(group[1], group[0]);
        } else {
          for (std::size_t i = 0; i < group.size(); ++i)
            slowdowns[i] =
                truth.slowdown(group[i], harness::others_excluding(group, i));
        }
        policy.observe_group(group, slowdowns);
      }
      close_lane(m);  // the resident set is about to change
      machines[m].push_back({jid, job.work});
      ++running_count;
      JobOutcome& out = res.outcomes[jid];
      out.job = job.id;
      out.type = job.type;
      out.machine = m;
      out.arrival = job.arrival;
      out.start = t;
      out.work = job.work;
      res.log.events.push_back({TraceEvent::Kind::Place, t, job.id, job.type,
                                m, policy.last_cost_delta()});
      emit_queue_depth();
    }
  };

  while (next_arrival < trace.size() || running_count > 0 ||
         !waiting.empty()) {
    // Earliest completion under current (constant-between-events) rates;
    // ties resolve to the lowest machine then slot, deterministically.
    double t_done = kInf;
    std::size_t done_m = 0, done_s = 0;
    for (std::size_t m = 0; m < cfg.machines; ++m)
      for (std::size_t s = 0; s < machines[m].size(); ++s) {
        const double eta =
            t + std::max(0.0, machines[m][s].remaining) * slowdown_of(m, s);
        if (eta < t_done) {
          t_done = eta;
          done_m = m;
          done_s = s;
        }
      }
    const double t_arr =
        next_arrival < trace.size() ? trace[next_arrival].arrival : kInf;
    if (t_done == kInf && t_arr == kInf)
      throw std::logic_error{"simulate: stuck with waiting jobs"};

    // Completions first on ties: a freed slot should serve a job
    // arriving at the same instant.
    const double te = std::min(t_done, t_arr);
    for (std::size_t m = 0; m < cfg.machines; ++m)
      for (std::size_t s = 0; s < machines[m].size(); ++s)
        machines[m][s].remaining -= (te - t) / slowdown_of(m, s);
    t = te;

    if (t_done <= t_arr) {
      const std::size_t jid = machines[done_m][done_s].job;
      close_lane(done_m);  // the resident set is about to change
      completions_ctr.add();
      machines[done_m].erase(machines[done_m].begin() +
                             static_cast<std::ptrdiff_t>(done_s));
      --running_count;
      JobOutcome& out = res.outcomes[jid];
      out.finish = t;
      res.log.events.push_back({TraceEvent::Kind::Finish, t, trace[jid].id,
                                out.type, done_m, out.corun_slowdown()});
    } else {
      const JobSpec& job = trace[next_arrival];
      res.log.events.push_back(
          {TraceEvent::Kind::Arrive, t, job.id, job.type, 0, 0.0});
      waiting.push_back(next_arrival);
      ++next_arrival;
      emit_queue_depth();
    }
    drain_waiting();
  }

  if (!res.outcomes.empty()) {
    res.billed_decisions = res.outcomes.size();
    for (const JobOutcome& o : res.outcomes) {
      res.mean_stretch += o.stretch();
      res.mean_corun_slowdown += o.corun_slowdown();
      res.makespan = std::max(res.makespan, o.finish);
    }
    res.mean_stretch /= static_cast<double>(res.outcomes.size());
    res.mean_corun_slowdown /= static_cast<double>(res.outcomes.size());
    res.mean_decision_regret /= static_cast<double>(res.outcomes.size());
  }
  res.pairwise_fallbacks = truth.fallbacks() - fallbacks_before;
  return res;
}

ClusterResult simulate_reference(const ClusterConfig& cfg,
                                 const harness::CorunMatrix& truth,
                                 const std::vector<JobSpec>& trace,
                                 PlacementPolicy& policy) {
  harness::MatrixTruth additive{truth};
  return simulate_reference(cfg, additive, trace, policy);
}

}  // namespace coperf::cluster

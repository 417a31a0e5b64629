#include "cluster/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <set>
#include <span>
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
              const std::vector<JobSpec>& trace) {
  // The audit log stores job ids, types and machine indexes in 32 bits.
  constexpr std::size_t kMaxId = std::numeric_limits<std::uint32_t>::max();
  if (cfg.machines == 0)
    throw std::invalid_argument{"simulate: need at least one machine"};
  if (cfg.machines > kMaxId)
    throw std::invalid_argument{"simulate: machine count above UINT32_MAX"};
  if (cfg.slots < 2)
    throw std::invalid_argument{"simulate: co-run machines need >= 2 slots"};
  if (truth.size() == 0)
    throw std::invalid_argument{"simulate: empty ground truth"};
  double prev = 0.0;
  for (const JobSpec& j : trace) {
    if (j.id > kMaxId || j.type > kMaxId)
      throw std::invalid_argument{"simulate: job id or type above UINT32_MAX"};
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
    prev = j.arrival;
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
}

// --- indexed fleet engine -------------------------------------------

/// One running job in the indexed engine, one host cache line wide.
/// `remaining` is materialized as of the owning machine's `upd` time;
/// `slowdown` and `eta` are valid for the machine's current resident
/// multiset. `id`, `start` and `work` let a completion log its Finish
/// event without loading the job's JobSpec or JobOutcome.
struct Resident {
  std::size_t job = 0;     ///< trace index
  std::uint32_t id = 0;    ///< JobSpec::id
  std::uint32_t type = 0;
  double remaining = 0.0;
  double slowdown = 1.0;
  double eta = kInf;       ///< absolute completion estimate
  double slo = 0.0;        ///< JobSpec::slo_p99 (0 = best-effort)
  double start = 0.0;      ///< JobOutcome::start, the first placement
  double work = 0.0;       ///< JobSpec::work
};

struct MachineState {
  double upd = 0.0;         ///< time `remaining` values were materialized
  double next_eta = kInf;   ///< min resident eta (ties: lowest slot)
  std::size_t next_pos = 0;
};

/// Per-machine engine state with the residents inline: machine m's
/// residents, in placement order, are slots [m * slots, m * slots +
/// count(m)) of one flat array, so no machine owns a heap block.
class Fleet {
 public:
  Fleet(std::size_t machines, std::size_t slots)
      : slots_(slots),
        state_(machines),
        count_(machines, 0),
        residents_(machines * slots) {}

  std::size_t size() const { return state_.size(); }
  std::size_t slots() const { return slots_; }
  std::size_t count(std::size_t m) const { return count_[m]; }
  MachineState& state(std::size_t m) { return state_[m]; }
  const MachineState& state(std::size_t m) const { return state_[m]; }
  std::span<Resident> residents(std::size_t m) {
    return {residents_.data() + m * slots_, count_[m]};
  }
  std::span<const Resident> residents(std::size_t m) const {
    return {residents_.data() + m * slots_, count_[m]};
  }

  /// Appends a resident; the caller keeps count(m) < slots.
  void push(std::size_t m, const Resident& r) {
    residents_[m * slots_ + count_[m]++] = r;
  }
  /// Removes the resident at `pos`, keeping the others in order.
  void erase(std::size_t m, std::size_t pos) {
    const std::span<Resident> rs = residents(m);
    std::copy(rs.begin() + static_cast<std::ptrdiff_t>(pos) + 1, rs.end(),
              rs.begin() + static_cast<std::ptrdiff_t>(pos));
    --count_[m];
  }
  void clear(std::size_t m) { count_[m] = 0; }

 private:
  std::size_t slots_;
  std::vector<MachineState> state_;
  std::vector<std::uint32_t> count_;
  std::vector<Resident> residents_;
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
  void refile(std::size_t m, bool open, std::span<const Resident> rs) {
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

/// Occupied machines filed by the priority classes of their residents:
/// the victim index behind preemptive migration. Machine m sits in
/// class c's set while it hosts at least one class-c resident, so the
/// lowest-class victim is one next(0) per class away instead of a scan
/// over every resident of the fleet.
class VictimIndex {
 public:
  /// One bit per priority class.
  using ClassMask = std::uint8_t;
  static_assert(kMaxPriority < 8 * sizeof(ClassMask),
                "every priority class needs a bit in ClassMask");

  VictimIndex(std::size_t machines, std::size_t classes)
      : by_class_(classes, detail::MachineSet(machines)), mask_(machines, 0) {}

  /// Re-files machine m under the classes in `mask`; only the sets
  /// whose bit changed are touched.
  void refile(std::size_t m, ClassMask mask) {
    for (ClassMask diff = mask_[m] ^ mask; diff; diff &= diff - 1) {
      const int c = std::countr_zero(diff);
      if (mask >> c & 1)
        by_class_[c].insert(m);
      else
        by_class_[c].erase(m);
    }
    mask_[m] = mask;
  }

  /// Lowest machine hosting a class-c resident; past the end if none.
  std::size_t first(unsigned c) const { return by_class_[c].next(0); }

 private:
  std::vector<detail::MachineSet> by_class_;
  std::vector<ClassMask> mask_;
};

/// A ~1e-9 relative ETA gap dwarfs the rounding (a few ulps of the
/// ETA) in both a cached ETA and view()'s remaining work, so a machine
/// whose ETA is further out by more than this has strictly more work
/// left in view() too.
constexpr double kEtaGuard = 1e-9;

/// The policies' window into the engine. Views materialize lazily and
/// are cached per event stamp; kth_open serves the policies' ascending
/// scans in O(1) amortized per step, and any other k by select().
class EngineView final : public ClusterView {
 public:
  EngineView(const Fleet& fleet, const CandidateIndex& idx, const double& t,
             const std::uint64_t& stamp)
      : fleet_(fleet),
        idx_(idx),
        t_(t),
        stamp_(stamp),
        views_(fleet.size()),
        view_stamp_(fleet.size(), 0) {}

  std::size_t machines() const override { return fleet_.size(); }
  std::size_t open_count() const override { return idx_.open().size(); }

  std::size_t kth_open(std::size_t k) const override {
    const bool warm = scan_stamp_ == stamp_;
    if (warm && k == last_k_) return last_m_;
    const std::size_t m = warm && k == last_k_ + 1
                              ? idx_.open().next(last_m_ + 1)
                              : idx_.open().select(k);
    if (m >= fleet_.size())
      throw std::out_of_range{"ClusterView::kth_open: index past open set"};
    scan_stamp_ = stamp_;
    last_k_ = k;
    last_m_ = m;
    return m;
  }

  /// Full and failed machines are exactly the ones outside the index.
  std::size_t free_slots(std::size_t m) const override {
    return idx_.open().contains(m) ? fleet_.slots() - fleet_.count(m) : 0;
  }

  const MachineView& view(std::size_t m) const override {
    MachineView& v = views_[m];
    if (view_stamp_[m] != stamp_) {
      const double upd = fleet_.state(m).upd;
      v.free_slots = free_slots(m);
      v.residents.clear();
      for (const Resident& r : fleet_.residents(m))
        v.residents.push_back(
            {r.type, std::max(0.0, r.remaining - (t_ - upd) / r.slowdown),
             r.slo});
      view_stamp_[m] = stamp_;
    }
    return v;
  }

  /// The scan's pick; an affine pricer prices each class of the
  /// candidate index, not every open machine. Machines of one
  /// single-resident class differ only in the resident's remaining
  /// work `rem`, and their delta is a + c * rem, monotone in rem --
  /// hence in the cached ETA, as all progress at the same solo rate.
  /// Every candidate is priced by the pricer, so the minimum
  /// (price, id) is bit-identical to the scan.
  PricedMachine cheapest_open(const JobSpec& job,
                              const Pricer& pricer) const override {
    if (!pricer.affine) return ClusterView::cheapest_open(job, pricer);
    const std::size_t n = fleet_.size();
    PricedMachine best{n, {kInf, kInf}};
    const auto price = [&](std::size_t m) {
      const Price p = pricer.price(job, view(m));
      if (p < best.price ||
          (p == best.price && best.machine < n && m < best.machine))
        best = {m, p};
      return p;
    };
    // Walks one class in the order its delta rises, and stops past a
    // machine priced strictly above the best once the next ETA is
    // clearly further out: everything beyond prices at least as high.
    const auto walk = [&](auto it, const auto end, bool ascending) {
      while (it != end) {
        const double eta = it->first;
        const Price p = price(it->second);
        if (++it == end) return;
        const double gap = kEtaGuard * std::abs(eta);
        if (best.price < p &&
            (ascending ? it->first > eta + gap : it->first < eta - gap))
          return;
      }
    };
    // Empty machines, and members of a class whose coefficient is
    // exactly 0, all price the same: the lowest id stands for them.
    if (const std::size_t m = idx_.empty().next(0); m < n) price(m);
    JobSpec idle = job;
    idle.work = 0.0;
    for (std::size_t type = 0; type < idx_.types(); ++type) {
      const CandidateIndex::EtaOrder& order = idx_.by_eta(type);
      if (order.empty()) continue;
      lone_.residents[0].type = type;
      const double c = pricer.price(idle, lone_).delta;
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
  const Fleet& fleet_;
  const CandidateIndex& idx_;
  const double& t_;
  const std::uint64_t& stamp_;
  mutable std::vector<MachineView> views_;
  mutable std::vector<std::uint64_t> view_stamp_;
  mutable MachineView lone_{0, {{0, 1.0, 0.0}}};  ///< slope probe, 1 unit left
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

/// A killed job waiting out its backoff before re-entering the waiting
/// lanes. Min-heap by (ready, jid) so same-instant requeues drain in
/// trace order.
struct Requeue {
  double ready = 0.0;
  std::size_t jid = 0;
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
  validate(cfg, truth, trace);
  const std::uint64_t fallbacks_before = truth.fallbacks();

  Fleet fleet(cfg.machines, cfg.slots);
  std::vector<char> alive(cfg.machines, 1);
  CandidateIndex index(cfg.machines, truth.size());
  for (std::size_t m = 0; m < cfg.machines; ++m)
    index.refile(m, /*open=*/true, {});

  unsigned max_priority = 0;
  for (const JobSpec& j : trace) max_priority = std::max(max_priority, j.priority);
  VictimIndex victims(cfg.machines, max_priority + 1);
  std::vector<std::deque<std::size_t>> waiting(max_priority + 1);
  std::size_t waiting_count = 0;

  ClusterResult res;
  res.outcomes.resize(trace.size());
  // Arrive, Place and Finish per job, plus one line per fault event:
  // the exact count of a fault-free run. Kills, evictions and their
  // re-placements grow it past that.
  res.log.events.reserve(3 * trace.size() + cfg.faults.size());
  // Does any job carry an SLO budget? When not, the LC billing below
  // is skipped entirely -- no tail_slowdown queries are issued, so
  // batch-only runs are byte-identical to the pre-SLO engine.
  bool any_lc = false;
  for (const JobSpec& j : trace)
    if (j.latency_critical()) {
      any_lc = true;
      ++res.lc_jobs;
    }
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
  EngineView cview{fleet, index, t, stamp};
  const Pricer delta_pricer = truth_pricer(truth);
  const Pricer lc_pricer = slo_pricer(truth);

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
    if (fleet.count(m) > 0 && t > lane_since[m]) {
      std::string label;
      for (const Resident& r : fleet.residents(m)) {
        if (!label.empty()) label += '+';
        label += type_label(r.type);
      }
      tr.complete(trace_pid, static_cast<int>(m), std::move(label),
                  lane_since[m] * kTraceUsPerUnit,
                  (t - lane_since[m]) * kTraceUsPerUnit,
                  obs::Args{}.set("residents", fleet.count(m)).str());
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
  const auto materialize = [&](std::size_t m) {
    MachineState& ms = fleet.state(m);
    if (ms.upd == t) return;
    for (Resident& r : fleet.residents(m))
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
    MachineState& ms = fleet.state(m);
    const std::span<Resident> rs = fleet.residents(m);
    ms.next_eta = kInf;
    ms.next_pos = 0;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      others_scratch.clear();
      for (std::size_t j = 0; j < rs.size(); ++j)
        if (j != i) others_scratch.push_back(rs[j].type);
      rs[i].slowdown = truth.slowdown(rs[i].type, others_scratch);
    }
    for (std::size_t i = 0; i < rs.size(); ++i) {
      Resident& r = rs[i];
      r.eta = t + std::max(0.0, r.remaining) * r.slowdown;
      if (r.eta < ms.next_eta) {
        ms.next_eta = r.eta;
        ms.next_pos = i;
      }
    }
    heap.update(m, rs.empty() ? kInf : ms.next_eta);
    index.refile(m, alive[m] && rs.size() < cfg.slots, rs);
    if (cfg.migration.preempt) {
      VictimIndex::ClassMask mask = 0;
      for (const Resident& r : rs)
        mask |= static_cast<VictimIndex::ClassMask>(1u << trace[r.job].priority);
      victims.refile(m, mask);
    }
  };

  // --- graceful-degradation helpers (inert on a fault-free run) -------

  // Drops a job for good: its solo work is the admission delta of never
  // running it, billed into shed_work / class stats.
  const auto shed_job = [&](std::size_t jid) {
    res.outcomes[jid].shed = true;
    ++res.shed_jobs;
    res.shed_work += trace[jid].work;
    shed_ctr.add();
    res.log.events.push_back({TraceEvent::Kind::Shed, t, trace[jid].id,
                              trace[jid].type, 0, trace[jid].work});
  };

  // Queues a job at the back of its priority lane: an admitted arrival,
  // a killed job once its backoff ends, or a migration victim at once.
  const auto enqueue = [&](std::size_t jid) {
    waiting[trace[jid].priority].push_back(jid);
    ++waiting_count;
    emit_queue_depth();
  };

  // A resident killed by a machine failure at time `t` restarts from
  // zero after an exponential backoff -- or is shed once its retry
  // budget is spent.
  const auto kill_resident = [&](std::size_t jid, std::size_t m) {
    JobOutcome& out = res.outcomes[jid];
    ++res.fault_kills;
    fault_kills_ctr.add();
    if (out.retries >= kMaxRetries) {
      shed_job(jid);
      return;
    }
    ++out.retries;
    retries_ctr.add();
    const double delay =
        kRetryBackoff *
        std::pow(kRetryBackoffFactor, static_cast<double>(out.retries - 1));
    res.log.events.push_back({TraceEvent::Kind::Evict, t, trace[jid].id,
                              trace[jid].type, m, trace[jid].work});
    requeue.push({t + delay, jid});
  };

  // The highest class with a waiting job; call with waiting_count > 0.
  const auto top_class = [&] {
    std::size_t c = waiting.size() - 1;
    while (waiting[c].empty()) --c;
    return c;
  };

  const auto drain_waiting = [&] {
    while (waiting_count > 0) {
      if (index.open().size() == 0) {
        // Preemptive migration: let the highest waiting class claim a
        // slot from a strictly lower-priority resident (lowest class
        // first; ties to the lowest machine then slot), found through
        // the victim index in one lookup per class. The victim
        // restarts from zero and requeues immediately at the back of
        // its own lane -- no backoff, it did nothing wrong. Progress
        // is guaranteed: every eviction is followed by a strictly
        // higher-priority placement.
        if (!cfg.migration.preempt) break;
        const std::size_t top = top_class();
        std::size_t vm = cfg.machines;
        unsigned vprio = 0;
        for (; vprio < top; ++vprio)
          if ((vm = victims.first(vprio)) < cfg.machines) break;
        if (vm == cfg.machines) break;  // nothing strictly lower to evict
        const std::span<const Resident> vrs = fleet.residents(vm);
        const auto victim = std::find_if(
            vrs.begin(), vrs.end(),
            [&](const Resident& r) { return trace[r.job].priority == vprio; });
        if (victim == vrs.end())
          throw std::logic_error{"simulate: victim index out of step"};
        const std::size_t vjid = victim->job;
        const auto vpos = static_cast<std::size_t>(victim - vrs.begin());
        close_lane(vm);  // the resident set is about to change
        materialize(vm);
        fleet.erase(vm, vpos);
        reindex(vm);
        --running_count;
        ++stamp;
        ++res.migrations;
        migrations_ctr.add();
        ++res.outcomes[vjid].evictions;
        res.log.events.push_back({TraceEvent::Kind::Evict, t, trace[vjid].id,
                                  trace[vjid].type, vm, trace[vjid].work});
        if (traced)
          tr.instant_at(trace_pid, static_cast<int>(vm),
                        "evict " + type_label(trace[vjid].type),
                        t * kTraceUsPerUnit,
                        obs::Args{}
                            .set("job", trace[vjid].id)
                            .set("for_class", top)
                            .set("work_left", trace[vjid].work)
                            .str());
        enqueue(vjid);
        continue;
      }
      std::deque<std::size_t>& lane = waiting[top_class()];
      const std::size_t jid = lane.front();
      lane.pop_front();
      --waiting_count;
      const JobSpec& job = trace[jid];
      const std::size_t m = policy.place(job, cview);
      if (m >= cfg.machines || !index.open().contains(m))
        throw std::logic_error{"simulate: policy chose a full or down machine"};
      // Bill the decision at ground truth: how much worse was the
      // chosen machine than the best one actually available?
      const bool billed =
          cfg.regret_sample != 0 && decisions % cfg.regret_sample == 0;
      ++decisions;
      // The chosen machine's price, then the lowest open price. The
      // chosen price is served again at the chosen view (EngineView
      // hands out one view object per machine), so no machine is
      // priced twice: pairwise_fallbacks counts what a scan counts.
      const auto bill = [&](const Pricer& pricer) {
        // One capture, so std::function stores the lambda inline.
        const struct { const MachineView& at; Price own; const Pricer& p; } c{
            cview.view(m), pricer.price(job, cview.view(m)), pricer};
        const Pricer once{[&c](const JobSpec& j, const MachineView& v) {
                            return &v == &c.at ? c.own : c.p.price(j, v);
                          },
                          pricer.affine};
        return std::pair{c.own, cview.cheapest_open(job, once).price};
      };
      std::pair<Price, Price> delta, lc;  // (chosen, lowest)
      if (billed) {
        delta = bill(delta_pricer);
        const double regret = delta.first.delta - delta.second.delta;
        res.mean_decision_regret += regret;
        ++res.billed_decisions;
        class_regret[job.priority] += regret;
        ++class_billed[job.priority];
        // LC tail billing: every billed decision on an SLO-carrying
        // trace pays for the true tail violation it inflicts (a
        // best-effort aggressor placed next to a running LC job blows
        // that job's p99, and this is the decision that did it).
        if (any_lc) {
          lc = bill(lc_pricer);
          res.mean_lc_tail_regret += lc.first.violation - lc.second.violation;
          ++res.lc_billed_decisions;
          if (lc.first.violation > 0.0) ++res.slo_violation_decisions;
        }
      }
      placements_ctr.add();
      if (traced) {
        obs::Args args;
        args.set("job", job.id)
            .set("policy", policy.name())
            .set("predicted_cost", policy.last_cost_delta());
        if (billed)
          args.set("true_cost", delta.first.delta)
              .set("regret", delta.first.delta - delta.second.delta);
        if (billed && any_lc)
          args.set("lc_regret", lc.first.violation - lc.second.violation);
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
      if (fleet.count(m) > 0) {
        group_scratch.clear();
        group_scratch.push_back(job.type);
        for (const Resident& r : fleet.residents(m))
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
      JobOutcome& out = res.outcomes[jid];
      out.machine = m;
      if (!placed[jid]) {
        placed[jid] = 1;
        out.start = t;
      }
      close_lane(m);  // the resident set is about to change
      materialize(m);
      fleet.push(m, {jid, static_cast<std::uint32_t>(job.id),
                     static_cast<std::uint32_t>(job.type), job.work, 1.0, kInf,
                     job.slo_p99, out.start, job.work});
      reindex(m);
      ++running_count;
      ++stamp;
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
      const std::size_t pos = fleet.state(done_m).next_pos;
      const Resident done = fleet.residents(done_m)[pos];
      close_lane(done_m);  // the resident set is about to change
      completions_ctr.add();
      materialize(done_m);
      fleet.erase(done_m, pos);
      reindex(done_m);
      --running_count;
      // JobOutcome::corun_slowdown(), from the resident's own copy of
      // start and work.
      res.outcomes[done.job].finish = t;
      res.log.events.push_back({TraceEvent::Kind::Finish, t, done.id,
                                done.type, done_m,
                                (t - done.start) / done.work});
    } else if (t_fault <= t_arr && t_fault <= t_req) {
      const FaultEvent& f = cfg.faults[next_fault];
      ++next_fault;
      t = f.time;
      ++stamp;
      if (f.kind == FaultEvent::Kind::Down) {
        close_lane(f.machine);  // the resident set is about to change
        ++res.failures;
        failures_ctr.add();
        res.log.events.push_back(
            {TraceEvent::Kind::Fail, t, 0, 0, f.machine, 0.0});
        for (const Resident& r : fleet.residents(f.machine))
          kill_resident(r.job, f.machine);
        running_count -= fleet.count(f.machine);
        fleet.clear(f.machine);
        alive[f.machine] = 0;
        reindex(f.machine);  // empty: leaves the heap and the index
        if (traced) down_since[f.machine] = t;
      } else {
        ++res.recoveries;
        recoveries_ctr.add();
        res.log.events.push_back(
            {TraceEvent::Kind::Recover, t, 0, 0, f.machine, 0.0});
        alive[f.machine] = 1;
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
      enqueue(rq.jid);
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
      if (cfg.admission.enabled() && job.priority < cfg.admission.shed_below &&
          waiting_count >= cfg.admission.queue_limit)
        shed_job(next_arrival);
      else
        enqueue(next_arrival);
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
  // A churn run outgrows the presized log and then grows it by
  // doubling; hand back only what it holds, so results kept alive by
  // the caller do not pin up to twice their events.
  res.log.events.shrink_to_fit();
  return res;
}

ClusterResult simulate(const ClusterConfig& cfg,
                       const harness::CorunMatrix& truth,
                       const std::vector<JobSpec>& trace,
                       PlacementPolicy& policy) {
  harness::MatrixTruth additive{truth};
  return simulate(cfg, additive, trace, policy);
}

}  // namespace coperf::cluster

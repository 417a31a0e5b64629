// Tail-latency interference and SLO-aware placement: what a p99 budget
// buys a latency-critical serving workload that throughput-only cost
// models cannot see.
//
// 1. Build a GroupTruth over {batch aggressors} + {serving victims}
//    (default: four Tiny-set aggressors vs kvserve + lsmserve) and
//    batch-measure every resident multiset a machine with --slots
//    co-run slots can hold. Serving foregrounds carry a per-request
//    latency distribution, so the truth answers BOTH slowdown
//    questions: throughput (cycles ratio) and tail (p99 request
//    latency ratio, tail_slowdown).
// 2. Print the victims' pairwise tail matrix next to the throughput
//    matrix: the paper's observation that shared-resource interference
//    hits the tail harder than the mean, now measured.
// 3. Sweep arrival traces at increasing load rungs where victim-type
//    jobs are latency-critical (JobSpec::slo_p99 = --slo, default
//    1.5), under four policies: random, throughput-cost (the legacy
//    cost model, SLO-blind), slo-aware (tail-aware admissibility +
//    throughput tie-break), and the group-truth oracle. The simulator
//    bills every decision twice -- throughput regret as always, plus
//    LC tail regret (true SLO violation of the chosen machine vs the
//    best open one) -- and the bench reports the LC/BE split.
// 4. Gate: the SLO-aware policy must hold LC p99 regret at or below
//    the throughput-only cost model on every rung (greppable verdict
//    line; CI enforces it).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "harness/grouptruth.hpp"
#include "harness/report.hpp"
#include "harness/runcache.hpp"
#include "snapshot.hpp"

int main(int argc, char** argv) try {
  using namespace coperf;
  unsigned machines = 4, slots = 3, max_truth_arity = 3;
  // p99-slowdown budget of the latency-critical jobs: > 1, since a
  // budget of 1.0 or less is unsatisfiable under any interference.
  double slo = 1.5;
  std::string victim;  // empty = kvserve and lsmserve
  const auto extra = [&](const std::string& arg) {
    if (arg.rfind("--machines=", 0) == 0) {
      machines = bench::parse_unsigned("--machines", arg.substr(11));
      return true;
    }
    if (arg.rfind("--slots=", 0) == 0) {
      slots = bench::parse_unsigned("--slots", arg.substr(8));
      return true;
    }
    if (arg.rfind("--max-truth-arity=", 0) == 0) {
      max_truth_arity =
          bench::parse_unsigned("--max-truth-arity", arg.substr(18));
      return true;
    }
    if (arg.rfind("--slo=", 0) == 0) {
      slo = bench::parse_decimal_above("--slo", arg.substr(6), 1.0);
      return true;
    }
    if (arg.rfind("--victim=", 0) == 0) {
      victim = arg.substr(9);
      if (victim.empty()) {
        std::cerr << "--victim= needs a workload name\n";
        std::exit(2);
      }
      return true;
    }
    return false;
  };
  const auto args = bench::parse_args(
      argc, argv, /*subset_supported=*/true, extra,
      "--machines=N --slots=N --max-truth-arity=N --slo=X --victim=W");
  bench::print_config(args, "serving tail latency under interference -- "
                            "SLO-aware vs throughput-only placement");
  if (slots < 2 || machines == 0 || max_truth_arity < 2) {
    std::cerr << "need --machines >= 1, --slots >= 2, --max-truth-arity >= 2\n";
    return 2;
  }

  // Axis: batch aggressors first, serving victims last -- victim type
  // indices are [first_victim, axis.size()).
  std::vector<std::string> aggressors = args.subset;
  if (aggressors.empty())
    aggressors = {"Stream", "Bandit", "G-PR", "fotonik3d"};
  std::vector<std::string> victims =
      victim.empty() ? std::vector<std::string>{"kvserve", "lsmserve"}
                     : std::vector<std::string>{victim};
  std::vector<std::string> axis = aggressors;
  axis.insert(axis.end(), victims.begin(), victims.end());
  const std::size_t first_victim = aggressors.size();

  const unsigned reps = args.effective_reps();

  harness::GroupTruth::Config gcfg;
  gcfg.workloads = axis;
  gcfg.opt = args.run_options();
  gcfg.reps = reps;
  gcfg.max_arity = std::min(max_truth_arity, slots);
  gcfg.member_threads =
      std::max(1u, gcfg.opt.machine.num_cores / std::max(slots, 2u));
  harness::GroupTruth truth{gcfg};

  std::cout << "ground truth: " << aggressors.size() << " aggressor type(s) + "
            << victims.size() << " serving victim(s), every <= "
            << gcfg.max_arity << "-resident multiset at "
            << gcfg.member_threads << " threads/member, SLO p99 budget "
            << harness::Table::fmt(slo, 2) << "x\n";
  const auto pstats =
      truth.prefetch_all(gcfg.max_arity, bench::plan_progress());
  std::cout << "  " << pstats.trials << " unique trials (" << pstats.residue
            << " to simulate, rest cached)\n";
  if (truth.truncated_trials() > 0)
    std::cerr << "WARNING: " << truth.truncated_trials()
              << " group trial(s) hit the cycle limit -- slowdowns are "
                 "lower bounds (raise cycle_limit or shrink --size)\n";

  // Sanity: serving victims must actually record requests, or tail ==
  // throughput and the whole bench degenerates.
  for (std::size_t v = first_victim; v < axis.size(); ++v)
    if (truth.solo(v).latency.empty()) {
      std::cerr << "error: victim '" << axis[v]
                << "' recorded no requests -- not a serving workload?\n";
      return 2;
    }

  const harness::CorunMatrix& pairwise = truth.pairwise();
  harness::CorunMatrix tailm = pairwise;
  for (std::size_t a = 0; a < axis.size(); ++a)
    for (std::size_t b = 0; b < axis.size(); ++b)
      tailm.normalized[a][b] = truth.tail_slowdown(a, {b});

  // The victims' pairwise interference profile: throughput slowdown
  // next to p99 slowdown per aggressor.
  std::cout << "\npairwise victim profile (co-run / solo):\n";
  harness::Table prof{{"victim", "vs", "throughput", "p99 latency",
                       "budget " + harness::Table::fmt(slo, 2) + "x"}};
  for (std::size_t v = first_victim; v < axis.size(); ++v)
    for (std::size_t b = 0; b < axis.size(); ++b) {
      const double tp = pairwise.normalized[v][b];
      const double tl = tailm.normalized[v][b];
      prof.add_row({axis[v], axis[b], harness::Table::fmt(tp, 3),
                    harness::Table::fmt(tl, 3),
                    tl > slo ? "BLOWN" : "ok"});
    }
  prof.print(std::cout);

  cluster::ClusterConfig cfg;
  cfg.machines = machines;
  cfg.slots = slots;
  cfg.type_names = axis;

  // Load rungs: offered load as a fraction of fleet slot capacity.
  const std::vector<double> rungs = {0.5, 0.8, 1.1};
  const unsigned seeds = std::max(3u, args.effective_reps());

  struct Cell {
    double lc_regret = 0.0;   ///< mean LC tail regret (p99 budget violation)
    double be_regret = 0.0;   ///< mean throughput decision regret
    double stretch = 0.0;
    std::uint64_t violations = 0;  ///< billed decisions that blew a budget
  };
  const std::vector<std::string> policy_names = {"random", "throughput-cost",
                                                 "slo-aware", "oracle"};
  // results[rung][policy]
  std::vector<std::vector<Cell>> results(
      rungs.size(), std::vector<Cell>(policy_names.size()));

  cluster::TraceOptions topt;
  topt.jobs = 400;
  topt.mean_work = 8.0;

  std::cout << "\nsweeping " << rungs.size() << " load rung(s) x " << seeds
            << " arrival trace(s) of " << topt.jobs << " jobs over "
            << machines << " machines x " << slots << " slots...\n";
  for (std::size_t ri = 0; ri < rungs.size(); ++ri) {
    topt.mean_interarrival =
        topt.mean_work /
        (rungs[ri] * static_cast<double>(cfg.machines * cfg.slots));
    for (unsigned seed = 1; seed <= seeds; ++seed) {
      topt.seed = seed;
      auto trace = cluster::synthetic_trace(axis.size(), topt);
      // Victim-type jobs are latency-critical: they carry the p99
      // budget the SLO billing prices violations against.
      for (cluster::JobSpec& j : trace)
        if (j.type >= first_victim) j.slo_p99 = slo;

      cluster::RandomPolicy random{seed};
      cluster::CostModelPolicy throughput{"throughput-cost", pairwise};
      cluster::SloAwarePolicy sloaware{"slo-aware", pairwise, tailm};
      cluster::GroupTruthPolicy oracle{"oracle", truth};
      cluster::PlacementPolicy* policies[] = {&random, &throughput, &sloaware,
                                              &oracle};
      for (std::size_t p = 0; p < policy_names.size(); ++p) {
        const auto run = cluster::simulate(cfg, truth, trace, *policies[p]);
        results[ri][p].lc_regret += run.mean_lc_tail_regret;
        results[ri][p].be_regret += run.mean_decision_regret;
        results[ri][p].stretch += run.mean_stretch;
        results[ri][p].violations += run.slo_violation_decisions;
      }
    }
    for (Cell& c : results[ri]) {
      c.lc_regret /= seeds;
      c.be_regret /= seeds;
      c.stretch /= seeds;
    }
  }

  harness::Table table{{"load", "policy", "LC p99 regret", "BE regret",
                        "mean stretch", "budget-blowing decisions"}};
  std::string csv =
      "load,policy,lc_p99_regret,be_regret,mean_stretch,violations\n";
  for (std::size_t ri = 0; ri < rungs.size(); ++ri)
    for (std::size_t p = 0; p < policy_names.size(); ++p) {
      const Cell& c = results[ri][p];
      table.add_row({harness::Table::fmt(rungs[ri], 1), policy_names[p],
                     harness::Table::fmt(c.lc_regret, 4),
                     harness::Table::fmt(c.be_regret, 4),
                     harness::Table::fmt(c.stretch, 3),
                     std::to_string(c.violations)});
      csv += harness::Table::fmt(rungs[ri], 1) + "," + policy_names[p] + "," +
             harness::Table::fmt(c.lc_regret, 5) + "," +
             harness::Table::fmt(c.be_regret, 5) + "," +
             harness::Table::fmt(c.stretch, 4) + "," +
             std::to_string(c.violations) + "\n";
    }
  std::cout << "\n";
  table.print(std::cout);

  // The gate CI greps: SLO-awareness must never cost LC tail regret
  // relative to the throughput-only model, and should strictly win
  // somewhere.
  const std::size_t p_tp = 1, p_slo = 2;
  bool every_rung = true;
  double sum_tp = 0.0, sum_slo = 0.0;
  for (std::size_t ri = 0; ri < rungs.size(); ++ri) {
    every_rung = every_rung &&
                 results[ri][p_slo].lc_regret <=
                     results[ri][p_tp].lc_regret + 1e-9;
    sum_tp += results[ri][p_tp].lc_regret;
    sum_slo += results[ri][p_slo].lc_regret;
  }
  std::cout << "\nLC p99 regret, slo-aware vs throughput-cost: "
            << harness::Table::fmt(sum_slo / rungs.size(), 4) << " vs "
            << harness::Table::fmt(sum_tp / rungs.size(), 4) << " mean over "
            << rungs.size() << " rungs\n";
  if (every_rung)
    std::cout << "SLO-aware placement holds LC p99 regret at or below the "
                 "throughput-only cost model on every rung"
              << (sum_slo < sum_tp - 1e-9 ? " (strictly lower overall)" : "")
              << "\n";
  else
    std::cout << "REGRESSION: SLO-aware placement exceeded the "
                 "throughput-only cost model's LC p99 regret on some rung\n";

  if (args.csv) std::cout << "\n" << csv;
  if (args.json) {
    std::ostringstream js;
    js << "{\n"
       << "  \"config\": {\"size\": \"" << bench::size_name(args.size())
       << "\", \"reps\": " << reps << ", \"aggressors\": "
       << aggressors.size() << ", \"victims\": " << victims.size()
       << ", \"machines\": " << machines << ", \"slots\": " << slots
       << ", \"max_truth_arity\": " << gcfg.max_arity << ", \"slo_p99\": "
       << slo << ", \"seeds\": " << seeds << "},\n"
       << "  \"truth\": {\"trials\": " << pstats.trials << ", \"residue\": "
       << pstats.residue << ", \"truncated\": " << truth.truncated_trials()
       << "},\n"
       << "  \"victim_pairwise\": [\n";
    bool vp_first = true;
    for (std::size_t v = first_victim; v < axis.size(); ++v)
      for (std::size_t b = 0; b < axis.size(); ++b) {
        js << (vp_first ? "" : ",\n") << "    {\"victim\": \"" << axis[v]
           << "\", \"vs\": \"" << axis[b] << "\", \"throughput\": "
           << pairwise.normalized[v][b] << ", \"p99\": "
           << tailm.normalized[v][b] << "}";
        vp_first = false;
      }
    js << "\n  ],\n  \"rungs\": [\n";
    for (std::size_t ri = 0; ri < rungs.size(); ++ri) {
      js << "    {\"load\": " << rungs[ri] << ", \"policies\": [\n";
      for (std::size_t p = 0; p < policy_names.size(); ++p) {
        const Cell& c = results[ri][p];
        js << "      {\"name\": \"" << policy_names[p]
           << "\", \"lc_p99_regret\": " << c.lc_regret << ", \"be_regret\": "
           << c.be_regret << ", \"mean_stretch\": " << c.stretch
           << ", \"violations\": " << c.violations << "}"
           << (p + 1 < policy_names.size() ? "," : "") << "\n";
      }
      js << "    ]}" << (ri + 1 < rungs.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"gate\": {\"slo_aware_holds_every_rung\": "
       << (every_rung ? "true" : "false") << ", \"strictly_lower_overall\": "
       << (sum_slo < sum_tp - 1e-9 ? "true" : "false") << "}\n}\n";
    std::cout << "\n" << js.str();
    bench::write_snapshot("serving_tail", js.str());
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

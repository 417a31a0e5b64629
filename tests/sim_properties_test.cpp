// Property-style invariants of the machine model under randomized and
// parameterized traffic.
#include <gtest/gtest.h>

#include <vector>

#include "sim/hierarchy.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace coperf::sim {
namespace {

MachineConfig tiny_machine() {
  MachineConfig c;
  c.num_cores = 4;
  c.l1d = CacheConfig{1024, 2, 4};
  c.l2 = CacheConfig{4096, 4, 12};
  c.l3 = CacheConfig{32768, 4, 38};
  return c;
}

/// Inclusion invariant: with an inclusive L3, every valid line in any
/// private cache must also be present in the L3 -- under arbitrary
/// randomized traffic from all cores.
TEST(HierarchyProperty, InclusionHoldsUnderRandomTraffic) {
  MachineConfig cfg = tiny_machine();
  cfg.l3_inclusive = true;
  MemorySystem ms{cfg};
  util::SplitMix64 rng{123};
  Cycle now = 0;
  std::vector<Addr> touched;
  for (int i = 0; i < 20'000; ++i) {
    const unsigned core = static_cast<unsigned>(rng.below(cfg.num_cores));
    const Addr addr = (rng.below(4096)) * kLineBytes;
    const bool write = rng.below(4) == 0;
    (void)ms.demand_access(core, addr, static_cast<std::uint16_t>(rng.below(7) + 1),
                           write, now);
    now += 1 + rng.below(40);
    touched.push_back(addr);
  }
  for (const Addr addr : touched) {
    const Addr line = line_of(addr);
    for (unsigned c = 0; c < cfg.num_cores; ++c) {
      if (ms.l1(c).probe(line) || ms.l2(c).probe(line)) {
        EXPECT_TRUE(ms.l3().probe(line))
            << "line " << line << " cached privately but absent from L3";
      }
    }
  }
}

/// Byte conservation: everything the channel read as demand must be at
/// least the lines the cores recorded as memory fills.
TEST(HierarchyProperty, ChannelBytesCoverDemandFills) {
  MachineConfig cfg = tiny_machine();
  Machine m{cfg};
  // A simple random-access script on two cores.
  struct Src final : OpSource {
    std::uint64_t n = 3000;
    std::uint64_t i = 0;
    std::uint64_t salt;
    explicit Src(std::uint64_t s) : salt(s) {}
    std::size_t refill(Op* buf, std::size_t max) override {
      std::size_t k = 0;
      util::SplitMix64 rng{salt + i};
      while (k < max && i < n) {
        buf[k++] = Op::load(rng.next() % (1 << 22), 3, Dep::Indep);
        ++i;
      }
      return k;
    }
    ThreadAttr attr() const override { return {1.0, 8}; }
  };
  Src a{1}, b{2};
  m.add_app(AppBinding{0, {0, 1}, {&a, &b}, nullptr, false});
  m.run();
  CoreStats total = m.app_stats(0);
  EXPECT_GE(m.mem().channel().stats().bytes_read, total.bytes_from_mem)
      << "channel reads must cover all demand line fills";
}

/// Determinism across machine instances for arbitrary mixed traffic.
TEST(HierarchyProperty, BitwiseDeterminism) {
  auto run = [] {
    MemorySystem ms{tiny_machine()};
    util::SplitMix64 rng{777};
    Cycle now = 0;
    std::uint64_t acc = 0;
    for (int i = 0; i < 5000; ++i) {
      const auto out = ms.demand_access(
          static_cast<unsigned>(rng.below(4)), rng.next() % (1 << 20),
          static_cast<std::uint16_t>(rng.below(9)), rng.below(3) == 0, now);
      now += 3 + rng.below(20);
      acc = acc * 31 + out.latency + static_cast<int>(out.level);
    }
    return acc;
  };
  EXPECT_EQ(run(), run());
}

/// Sweeping the quantum must not change results by more than a few
/// percent (relaxed synchronization accuracy bound).
class QuantumSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QuantumSweep, RuntimeStableAcrossQuanta) {
  auto run_with_quantum = [](std::uint32_t q) {
    MachineConfig cfg = tiny_machine();
    cfg.quantum_cycles = q;
    Machine m{cfg};
    struct Src final : OpSource {
      std::uint64_t i = 0;
      std::size_t refill(Op* buf, std::size_t max) override {
        std::size_t k = 0;
        while (k < max && i < 20'000) {
          buf[k++] = Op::load((i * 7919) % (1 << 20) * kLineBytes, 2);
          buf[k++] = Op::compute(4);
          i++;
        }
        return k;
      }
      ThreadAttr attr() const override { return {0.7, 8}; }
    };
    Src a, b;
    m.add_app(AppBinding{0, {0, 1}, {&a, &b}, nullptr, false});
    return m.run().finish_cycle;
  };
  const double base = static_cast<double>(run_with_quantum(1000));
  const double got = static_cast<double>(run_with_quantum(GetParam()));
  if (GetParam() <= 1000) {
    // The default quantum sits in the converged regime: refining the
    // quantum further must not change results materially.
    EXPECT_NEAR(got / base, 1.0, 0.05)
        << "quantum " << GetParam() << " diverges from the 1000-cycle default";
  } else {
    // Coarser quanta trade accuracy for speed; divergence must stay
    // bounded.
    EXPECT_LT(got / base, 3.0);
    EXPECT_GT(got / base, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Quanta, QuantumSweep,
                         ::testing::Values(250, 500, 2000, 4000));

/// Latency monotonicity: the same access pattern on a machine with less
/// bandwidth can never finish earlier.
class BandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthSweep, LowerPeakNeverFaster) {
  auto run_with_bw = [](double gbs) {
    MachineConfig cfg = tiny_machine();
    cfg.peak_bw_gbs = gbs;
    cfg.per_core_bw_gbs = gbs;  // keep the gate consistent
    Machine m{cfg};
    struct Src final : OpSource {
      std::uint64_t i = 0;
      std::size_t refill(Op* buf, std::size_t max) override {
        std::size_t k = 0;
        while (k < max && i < 10'000)
          buf[k++] = Op::load((i++ * 97) * kLineBytes, 2);
        return k;
      }
      ThreadAttr attr() const override { return {0.7, 8}; }
    };
    Src a;
    m.add_app(AppBinding{0, {0}, {&a}, nullptr, false});
    return m.run().finish_cycle;
  };
  const Cycle fast = run_with_bw(28.0);
  const Cycle slow = run_with_bw(GetParam());
  EXPECT_GE(slow, fast);
}

INSTANTIATE_TEST_SUITE_P(Peaks, BandwidthSweep,
                         ::testing::Values(2.0, 4.0, 8.0, 16.0));

/// MLP monotonicity: more permitted overlap can never slow a run of
/// independent misses.
class MlpSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MlpSweep, WiderWindowNeverSlower) {
  auto run_with_mlp = [](std::uint32_t mlp) {
    Machine m{tiny_machine()};
    struct Src final : OpSource {
      ThreadAttr a;
      std::uint64_t i = 0;
      explicit Src(std::uint32_t mlp) : a{1.0, mlp} {}
      std::size_t refill(Op* buf, std::size_t max) override {
        std::size_t k = 0;
        while (k < max && i < 5000)
          buf[k++] = Op::load((i++ * 131) * kLineBytes, 2);
        return k;
      }
      ThreadAttr attr() const override { return a; }
    };
    Src s{mlp};
    m.add_app(AppBinding{0, {0}, {&s}, nullptr, false});
    return m.run().finish_cycle;
  };
  EXPECT_GE(run_with_mlp(GetParam()), run_with_mlp(GetParam() + 2));
}

INSTANTIATE_TEST_SUITE_P(Windows, MlpSweep, ::testing::Values(1, 2, 4, 6, 8));

/// Bypass accesses never change cache contents.
TEST(HierarchyProperty, BypassLeavesCachesUntouched) {
  MemorySystem ms{tiny_machine()};
  // Warm a line normally, then hammer bypassing traffic elsewhere.
  (void)ms.demand_access(0, 0x100, 1, false, 0);
  const std::uint64_t occ_before =
      ms.l3().occupancy() + ms.l1(0).occupancy() + ms.l2(0).occupancy();
  Cycle now = 100;
  for (int i = 0; i < 5000; ++i)
    (void)ms.demand_access(0, 0x40000 + i * 4096, 2, false, now += 10,
                           /*allocate=*/false);
  const std::uint64_t occ_after =
      ms.l3().occupancy() + ms.l1(0).occupancy() + ms.l2(0).occupancy();
  EXPECT_EQ(occ_before, occ_after);
  EXPECT_TRUE(ms.l1(0).probe(line_of(0x100)));
}

}  // namespace
}  // namespace coperf::sim

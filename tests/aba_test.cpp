// Protocol tests: asynchronous Byzantine agreement (Section 5, Theorem 1).
//
// Agreement: no two honest processes decide differently — ever, under any
// schedule or fault mix we can throw at it.  Validity: a unanimous honest
// input is the only possible decision.  Termination: all honest processes
// decide (almost surely; each run is a sample).
#include <gtest/gtest.h>

#include "core/runner.hpp"

namespace svss {
namespace {

RunnerConfig cfg(int n, int t, std::uint64_t seed,
                 SchedulerKind sched = SchedulerKind::kRandom) {
  RunnerConfig c;
  c.n = n;
  c.t = t;
  c.seed = seed;
  c.scheduler = sched;
  return c;
}

// --- Validity ----------------------------------------------------------
TEST(Aba, UnanimousInputDecidesThatValue) {
  for (int v : {0, 1}) {
    Runner r(cfg(4, 1, 41 + static_cast<std::uint64_t>(v)));
    auto res = r.run_aba({v, v, v, v}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided);
    EXPECT_TRUE(res.agreed);
    EXPECT_EQ(res.value, v);
  }
}

TEST(Aba, UnanimousHonestInputWithByzantineMinority) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto c = cfg(4, 1, seed);
    c.faults[3] = ByzConfig{ByzKind::kBitFlip, 0, 0.2};
    Runner r(c);
    auto res = r.run_aba({1, 1, 1, 0}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided) << seed;
    EXPECT_TRUE(res.agreed) << seed;
    EXPECT_EQ(res.value, 1) << seed;  // honest inputs are unanimous
  }
}

// --- Agreement + termination, mixed inputs -----------------------------
TEST(Aba, MixedInputsAgree) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Runner r(cfg(4, 1, 100 + seed));
    auto res = r.run_aba({0, 1, 0, 1}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided) << seed;
    EXPECT_TRUE(res.agreed) << seed;
  }
}

TEST(Aba, MixedInputsUnderHostileSchedulers) {
  for (auto sched : {SchedulerKind::kFifo, SchedulerKind::kLifo,
                     SchedulerKind::kDelayLastHonest}) {
    Runner r(cfg(4, 1, 43, sched));
    auto res = r.run_aba({1, 0, 1, 0}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided);
    EXPECT_TRUE(res.agreed);
  }
}

TEST(Aba, SilentFaultMixedInputs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto c = cfg(4, 1, 200 + seed);
    c.faults[2] = ByzConfig{ByzKind::kSilent};
    Runner r(c);
    auto res = r.run_aba({0, 1, 0, 1}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided) << seed;
    EXPECT_TRUE(res.agreed) << seed;
  }
}

TEST(Aba, ActiveByzantineFaultNeverBreaksAgreement) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (auto kind : {ByzKind::kEquivocate, ByzKind::kWrongRecon,
                      ByzKind::kBitFlip}) {
      auto c = cfg(4, 1, 300 + seed);
      c.faults[3] = ByzConfig{kind, 200, 0.15};
      Runner r(c);
      auto res = r.run_aba({0, 1, 1, 0}, CoinMode::kSvss);
      ASSERT_TRUE(res.all_decided)
          << "seed " << seed << " kind " << static_cast<int>(kind);
      EXPECT_TRUE(res.agreed)
          << "seed " << seed << " kind " << static_cast<int>(kind);
    }
  }
}

// n = 7, t = 2 with two mixed faults, full SVSS coin (heavier run).
TEST(Aba, SevenProcessesTwoFaults) {
  auto c = cfg(7, 2, 51);
  c.faults[5] = ByzConfig{ByzKind::kSilent};
  c.faults[6] = ByzConfig{ByzKind::kWrongRecon};
  Runner r(c);
  auto res = r.run_aba({0, 1, 0, 1, 0, 1, 0}, CoinMode::kSvss);
  ASSERT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
}

// --- The lazy SVSS coin (aba/aba.hpp) -----------------------------------
// Whether process i dealt coin round r of instance 0.
bool dealt_coin(Runner& r, int i, std::uint32_t round) {
  const CoinSession* cs = r.node(i).find_coin(0, round);
  return cs != nullptr && cs->dealt();
}

// Seed 92 splits round 1: one process's frozen CONF sample falls through
// to the coin while the other three adopt at t+1 singletons.  The one
// dealing pulls every other process in, so all of them deal the round-1
// coin (the lazy coin's termination argument).
TEST(Aba, OneFallbackPullsEveryProcessIntoTheCoin) {
  Runner r(cfg(4, 1, 92));
  auto res = r.run_aba({0, 1, 0, 1}, CoinMode::kSvss);
  ASSERT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  int fell_back = 0;
  for (int i : r.honest_ids()) {
    AbaSession::RoundSnapshot snap = r.node(i).aba()->snapshot(1);
    ASSERT_TRUE(snap.conf_frozen) << i;
    if (snap.singletons[0] < 2 && snap.singletons[1] < 2) ++fell_back;
  }
  ASSERT_EQ(fell_back, 1);
  auto all_dealt = [&r] {
    for (int i : r.honest_ids()) {
      if (!dealt_coin(r, i, 1)) return false;
    }
    return true;
  };
  r.engine().run_until(all_dealt, 5'000'000);
  for (int i : r.honest_ids()) EXPECT_TRUE(dealt_coin(r, i, 1)) << i;
}

// Unanimous inputs decide in round 1, and every later round sees t+1
// singletons, so no process ever deals a coin: rounds after the decision
// cost votes only.
TEST(Aba, UnanimousInputsDealNoCoin) {
  Runner r(cfg(4, 1, 93));
  auto res = r.run_aba({1, 1, 1, 1}, CoinMode::kSvss);
  ASSERT_TRUE(res.all_decided);
  EXPECT_EQ(res.value, 1);
  // Keep going well past the decision.
  auto past_round_5 = [&r] {
    for (int i : r.honest_ids()) {
      if (r.node(i).aba()->current_round() < 5) return false;
    }
    return true;
  };
  ASSERT_EQ(r.engine().run_until(past_round_5, 1'000'000),
            RunStatus::kQuiescent);
  for (int i : r.honest_ids()) {
    for (std::uint32_t round = 1; round <= r.node(i).aba()->current_round();
         ++round) {
      EXPECT_FALSE(dealt_coin(r, i, round)) << i << " round " << round;
    }
  }
  const Metrics& m = r.engine().metrics();
  for (MsgType type : {MsgType::kSvssDealerShares, MsgType::kSvssBatchShares}) {
    EXPECT_EQ(m.packets_by_type[static_cast<std::size_t>(type)], 0u);
  }
}

// --- Ideal-coin mode: the SCC abstraction at larger scales -------------
class AbaIdealSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(AbaIdealSweep, AgreementAcrossSizesAndSeeds) {
  auto [n, seed] = GetParam();
  int t = (n - 1) / 3;
  auto c = cfg(n, t, seed);
  // Last t processes byzantine (bit-flipping).
  for (int i = n - t; i < n; ++i) {
    c.faults[i] = ByzConfig{ByzKind::kBitFlip, 0, 0.2};
  }
  Runner r(c);
  std::vector<int> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(i % 2);
  auto res = r.run_aba(inputs, CoinMode::kIdealCommon);
  ASSERT_TRUE(res.all_decided) << "n=" << n << " seed=" << seed;
  EXPECT_TRUE(res.agreed) << "n=" << n << " seed=" << seed;
  EXPECT_TRUE(res.value == 0 || res.value == 1);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, AbaIdealSweep,
    ::testing::Combine(::testing::Values(4, 7, 10, 13),
                       ::testing::Values(1u, 2u, 3u, 4u)));

// Decision rounds stay small when the coin is common: expected O(1) good
// rounds to converge.
TEST(Aba, IdealCoinDecidesInFewRounds) {
  std::uint32_t worst = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Runner r(cfg(7, 2, 700 + seed));
    auto res = r.run_aba({0, 1, 0, 1, 0, 1, 0}, CoinMode::kIdealCommon);
    ASSERT_TRUE(res.all_decided);
    worst = std::max(worst, res.max_round);
  }
  EXPECT_LE(worst, 12u);
}

// Honest processes decide within one round of each other (the CONF
// propagation argument).
TEST(Aba, DecisionRoundsWithinOne) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Runner r(cfg(4, 1, 800 + seed));
    auto res = r.run_aba({0, 1, 1, 0}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided);
    std::uint32_t lo = ~0u;
    std::uint32_t hi = 0;
    for (const auto& [i, round] : res.decision_rounds) {
      lo = std::min(lo, round);
      hi = std::max(hi, round);
    }
    EXPECT_LE(hi - lo, 1u) << seed;
  }
}

}  // namespace
}  // namespace svss

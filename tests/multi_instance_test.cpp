// Multi-instance agreement: k concurrent instances multiplexed over one
// node/transport stack (SessionId::instance + cross-instance vote
// batching, src/aba/vote_batch.hpp).
//
// Four properties pinned here:
//
//  1. Per-instance correctness under concurrency — k instances driven
//     through Runner::submit/run_submitted each satisfy agreement and
//     validity independently.  Inputs are unanimous per instance
//     (instance i gets input i % 2 everywhere), so validity forces the
//     decision of instance i to equal i % 2 exactly — any cross-instance
//     vote bleed (a batching or routing bug) flips some instance to the
//     wrong value and fails loudly.
//  2. Framing equivalence — the batched and per-session vote framings
//     reach the same per-instance decisions, and the batched run actually
//     coalesces: it moves fewer agreement packets while the per-session
//     run moves none of the envelope types.
//  3. Backend equivalence — the socket-loopback backend reaches the same
//     per-instance decisions as the simulator for the same submission
//     set, riding the batched envelopes over real TCP untranslated.
//  4. Cascade framing is stable — a golden trace pins SVSS-coin runs whose
//     cascades mix vote, MW-SVSS and coin-dealing captures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/runner.hpp"
#include "search/search.hpp"

namespace svss {
namespace {

constexpr int kN = 4;
constexpr std::uint32_t kInstances = 4;

RunnerConfig base_config(std::uint64_t seed) {
  RunnerConfig cfg;
  cfg.n = kN;
  cfg.t = 1;
  cfg.seed = seed;
  return cfg;
}

// Submit kInstances instances with unanimous per-instance inputs:
// instance i's input is i % 2 at every process.
void submit_unanimous(Runner& r) {
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    r.submit(i, std::vector<int>(kN, static_cast<int>(i) % 2));
  }
}

void expect_valid_decisions(const Runner::MultiAbaResult& res,
                            const char* label) {
  EXPECT_TRUE(res.all_decided) << label;
  EXPECT_TRUE(res.agreed) << label;
  EXPECT_EQ(res.status, RunStatus::kQuiescent) << label;
  ASSERT_EQ(res.values.size(), kInstances) << label;
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    auto it = res.values.find(i);
    ASSERT_NE(it, res.values.end()) << label << " instance " << i;
    // Unanimous inputs: validity pins the decision to the common input.
    EXPECT_EQ(it->second, static_cast<int>(i) % 2)
        << label << " instance " << i;
  }
}

TEST(MultiInstance, ConcurrentInstancesDecideTheirOwnInputs) {
  for (std::uint64_t seed : {7301ull, 7302ull, 7303ull}) {
    Runner r(base_config(seed));
    submit_unanimous(r);
    expect_valid_decisions(r.run_submitted(CoinMode::kIdealCommon), "sim");
  }
}

// Mixed inputs within each instance: agreement must still hold per
// instance (the decided value is schedule-dependent, but all honest
// processes of one instance must match).
TEST(MultiInstance, MixedInputsStayAgreedPerInstance) {
  RunnerConfig cfg = base_config(7311);
  Runner r(cfg);
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    std::vector<int> inputs;
    for (int p = 0; p < kN; ++p) {
      inputs.push_back((p + static_cast<int>(i)) % 2);
    }
    r.submit(i, std::move(inputs));
  }
  auto res = r.run_submitted(CoinMode::kIdealCommon);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  EXPECT_EQ(res.values.size(), kInstances);
}

// The full-stack SVSS coin also multiplexes: every instance runs its own
// shunning-common-coin rounds namespaced by SessionId::instance.
TEST(MultiInstance, SvssCoinInstancesStayIndependent) {
  RunnerConfig cfg = base_config(7321);
  Runner r(cfg);
  for (std::uint32_t i = 0; i < 2; ++i) {
    r.submit(i, std::vector<int>(kN, static_cast<int>(i) % 2));
  }
  auto res = r.run_submitted(CoinMode::kSvss);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  ASSERT_EQ(res.values.size(), 2u);
  EXPECT_EQ(res.values.at(0), 0);
  EXPECT_EQ(res.values.at(1), 1);
}

TEST(MultiInstance, VoteFramingsReachTheSameDecisions) {
  auto run = [](Framing votes) {
    RunnerConfig cfg = base_config(7331);
    cfg.transport.aba_votes = votes;
    Runner r(cfg);
    submit_unanimous(r);
    return r.run_submitted(CoinMode::kIdealCommon);
  };
  auto batched = run(Framing::kBatched);
  auto per_session = run(Framing::kPerSession);
  expect_valid_decisions(batched, "batched");
  expect_valid_decisions(per_session, "per-session");
  EXPECT_EQ(batched.values, per_session.values);

  // The batched run must actually coalesce: envelope packets exist, the
  // per-session run has none, and the batched run moves fewer agreement
  // packets overall.
  auto aba_packets = [](const Metrics& m) {
    return m.packets_by_type[static_cast<std::size_t>(MsgType::kAbaVote)] +
           m.packets_by_type[static_cast<std::size_t>(
               MsgType::kAbaBatchVote)] +
           m.packets_by_type[static_cast<std::size_t>(
               MsgType::kAbaBatchConf)];
  };
  auto envelopes = [](const Metrics& m) {
    return m.packets_by_type[static_cast<std::size_t>(
               MsgType::kAbaBatchVote)] +
           m.packets_by_type[static_cast<std::size_t>(
               MsgType::kAbaBatchConf)];
  };
  EXPECT_GT(envelopes(batched.metrics), 0u);
  EXPECT_EQ(envelopes(per_session.metrics), 0u);
  EXPECT_LT(aba_packets(batched.metrics), aba_packets(per_session.metrics));
}

TEST(MultiInstance, SocketLoopbackMatchesSim) {
  auto run = [](TransportKind kind) {
    RunnerConfig cfg = base_config(7341);
    cfg.transport.kind = kind;
    Runner r(cfg);
    submit_unanimous(r);
    return r.run_submitted(CoinMode::kIdealCommon);
  };
  auto sim = run(TransportKind::kSim);
  auto loopback = run(TransportKind::kSocketLoopback);
  expect_valid_decisions(sim, "sim");
  expect_valid_decisions(loopback, "socket-loopback");
  EXPECT_EQ(sim.values, loopback.values);
  EXPECT_EQ(sim.decisions, loopback.decisions);
}

// Non-contiguous instance ids that decide out of submission order: the
// completion check walks the submitted ids with a per-node cursor, so it
// must keep waiting on the slow low ids after the fast high ids decided.
// The two lowest ids get split inputs (they need later rounds); the rest
// are unanimous and decide in round 1.  Both backends must finish with
// every instance decided at every node.
TEST(MultiInstance, NonContiguousIdsDecidingOutOfOrderAllComplete) {
  const std::vector<std::uint32_t> ids = {3, 12, 77, 900, 5000};
  auto submit = [&ids](Runner& r) {
    for (std::size_t k = 0; k < ids.size(); ++k) {
      std::vector<int> inputs;
      for (int p = 0; p < kN; ++p) inputs.push_back(k < 2 ? p % 2 : 1);
      r.submit(ids[k], inputs);
    }
  };
  auto check = [&ids](const Runner::MultiAbaResult& res, const char* label) {
    EXPECT_TRUE(res.all_decided) << label;
    EXPECT_TRUE(res.agreed) << label;
    EXPECT_EQ(res.status, RunStatus::kQuiescent) << label;
    for (std::uint32_t id : ids) {
      ASSERT_EQ(res.decisions.at(id).size(), static_cast<std::size_t>(kN))
          << label << " instance " << id;
    }
    for (std::size_t k = 2; k < ids.size(); ++k) {
      EXPECT_EQ(res.values.at(ids[k]), 1) << label << " instance " << ids[k];
    }
  };

  RunnerConfig cfg = base_config(7361);
  Runner sim(cfg);
  submit(sim);
  std::vector<std::uint32_t> order;  // decision order at node 0
  sim.node(0).observers.aba_decided =
      [&order](Context&, int, std::uint32_t, std::uint32_t instance) {
        order.push_back(instance);
      };
  check(sim.run_submitted(CoinMode::kIdealCommon), "sim");
  ASSERT_EQ(order.size(), ids.size());
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "instances decided in submission order; the case is vacuous";

  cfg.transport.kind = TransportKind::kSocketLoopback;
  Runner loopback(cfg);
  submit(loopback);
  check(loopback.run_submitted(CoinMode::kIdealCommon), "socket-loopback");
}

// Golden trace of cascades that mix every capture kind: k = 2 concurrent
// SVSS-coin instances with split inputs, all framings batched, so one
// delivery cascade can carry agreement votes, MW-SVSS group traffic and
// coin dealing shares at once.  The EventLog fingerprint, each node's
// decision round per instance, and msgs/bytes per message type are pinned
// per seed: any change to when or how the coalescer flushes shows up here.
// The SVSS coin is dealt only where a round falls through to it: seeds
// 7381 and 7383 fall back in round 1 and also run G-set envelopes,
// recon-value envelopes and single-vote fallbacks; 7385 decides both
// instances in round 1 and moves vote envelopes only.
struct MixedCascadeGolden {
  std::uint64_t seed;
  std::uint64_t fingerprint;
  std::vector<std::uint32_t> rounds;  // instance-major, node-minor
  const char* traffic;                // "type=msgs/bytes" per type
};

std::string traffic_digest(const Metrics& m) {
  std::string out;
  for (std::size_t i = 0; i < Metrics::kTypeSlots; ++i) {
    if (m.packets_by_type[i] == 0) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s%s=%llu/%llu", out.empty() ? "" : " ",
                  msg_type_name(static_cast<MsgType>(i)),
                  static_cast<unsigned long long>(m.packets_by_type[i]),
                  static_cast<unsigned long long>(m.bytes_by_type[i]));
    out += buf;
  }
  return out;
}

TEST(MultiInstance, MixedCascadeGoldenTrace) {
  const MixedCascadeGolden golden[] = {
      {7381, 0xc7455dda72495caaull, {2, 2, 2, 2, 2, 2, 2, 2},
       "mw-batch-direct=4463/646809 mw-batch-ack=25524/2245296 "
       "mw-batch-lset=23288/3539776 mw-batch-mset=6428/985824 "
       "mw-batch-ok=6436/566368 mw-batch-recon-val=20876/2813088 "
       "svss-batch-shares=32/3808 svss-batch-gset=272/112384 "
       "coin-gset=260/21840 coin-start-recon=268/19296 aba-vote=3040/220840 "
       "aba-batch-vote=76/6612 aba-batch-conf=168/16128"},
      {7383, 0x1f0dbb896e5863adull, {2, 2, 2, 2, 2, 2, 1, 2},
       "mw-batch-direct=4198/608234 mw-batch-ack=23964/2108400 "
       "mw-batch-lset=22144/3365888 mw-batch-mset=5580/857248 "
       "mw-batch-ok=5552/488576 mw-batch-recon-val=18956/2607120 "
       "svss-batch-shares=32/3808 svss-batch-gset=272/111680 "
       "coin-gset=260/21840 coin-start-recon=228/16416 aba-vote=5724/416868 "
       "aba-batch-vote=116/13356 aba-batch-conf=300/36480"},
      {7385, 0x77928942b86929a5ull, {1, 1, 1, 1, 1, 1, 1, 1},
       "aba-batch-vote=68/6300 aba-batch-conf=112/10752"},
  };
  for (const MixedCascadeGolden& g : golden) {
    RunnerConfig cfg = base_config(g.seed);
    cfg.transport.coin_dealing = Framing::kBatched;
    cfg.transport.mw_children = Framing::kBatched;
    cfg.transport.aba_votes = Framing::kBatched;
    Runner r(cfg);
    for (std::uint32_t i = 0; i < 2; ++i) {
      std::vector<int> inputs;
      for (int p = 0; p < kN; ++p) {
        inputs.push_back((p + static_cast<int>(i)) % 2);
      }
      r.submit(i, std::move(inputs));
    }
    auto res = r.run_submitted(CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided) << g.seed;
    EXPECT_TRUE(res.agreed) << g.seed;
    std::vector<std::uint32_t> rounds;
    for (std::uint32_t i = 0; i < 2; ++i) {
      for (int p = 0; p < kN; ++p) {
        rounds.push_back(r.node(p).aba(i)->decision_round());
      }
    }
    const std::uint64_t fp = search::trace_fingerprint(r.engine().log());
    EXPECT_EQ(fp, g.fingerprint) << g.seed;
    EXPECT_EQ(rounds, g.rounds) << g.seed;
    EXPECT_EQ(traffic_digest(res.metrics), g.traffic) << g.seed;
  }
}

TEST(MultiInstance, SubmitValidatesItsArguments) {
  Runner r(base_config(7351));
  EXPECT_THROW(r.submit(0, std::vector<int>(kN - 1, 0)),
               std::invalid_argument);
  r.submit(0, std::vector<int>(kN, 1));
  EXPECT_THROW(r.submit(0, std::vector<int>(kN, 0)), std::invalid_argument);
  Runner empty(base_config(7352));
  EXPECT_THROW(empty.run_submitted(), std::invalid_argument);
}

}  // namespace
}  // namespace svss

// Regression: deterministic replay.  A run is a pure function of its
// RunnerConfig, so two Runners built from identical configs must produce
// byte-identical EventLog traces — for every scheduler kind, with faults
// in play.  This is the invariant every "replay the failing seed" workflow
// depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/runner.hpp"
#include "search/corpus.hpp"

#ifndef SVSS_CORPUS_DIR
#define SVSS_CORPUS_DIR "tests/corpus"
#endif

namespace svss {
namespace {

// Flattens an event log into a canonical little-endian byte string covering
// every field of every event, so EXPECT_EQ compares traces byte-for-byte.
std::vector<std::uint8_t> trace_bytes(const EventLog& log) {
  std::vector<std::uint8_t> out;
  auto put = [&out](std::uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  for (const Event& e : log.events()) {
    put(static_cast<std::uint64_t>(e.kind), 1);
    put(static_cast<std::uint32_t>(e.who), 4);
    put(static_cast<std::uint32_t>(e.other), 4);
    put(static_cast<std::uint64_t>(e.sid.path), 1);
    put(e.sid.variant, 1);
    put(static_cast<std::uint16_t>(e.sid.owner), 2);
    put(static_cast<std::uint16_t>(e.sid.moderator), 2);
    put(static_cast<std::uint16_t>(e.sid.svss_dealer), 2);
    put(e.sid.counter, 4);
    put(static_cast<std::uint64_t>(e.value), 8);
    put(e.has_value ? 1 : 0, 1);
  }
  return out;
}

RunnerConfig cfg(SchedulerKind sched) {
  RunnerConfig c;
  c.n = 4;
  c.t = 1;
  c.seed = 20260729;
  c.scheduler = sched;
  c.faults[3] = ByzConfig{ByzKind::kBitFlip, 0, 0.15};
  return c;
}

class ReplaySweep : public ::testing::TestWithParam<SchedulerKind> {};

// Full-stack agreement (SVSS-backed coin) replayed from the same config:
// identical trace bytes, identical results, identical wire metrics.
TEST_P(ReplaySweep, AbaTraceIsByteIdentical) {
  auto run = [&] {
    Runner r(cfg(GetParam()));
    auto res = r.run_aba({0, 1, 1, 0}, CoinMode::kSvss);
    return std::make_tuple(trace_bytes(r.engine().log()), res.all_decided,
                           res.value, r.engine().metrics().packets_delivered,
                           r.engine().metrics().bytes_sent);
  };
  auto a = run();
  auto b = run();
  EXPECT_FALSE(std::get<0>(a).empty());
  EXPECT_EQ(a, b);
}

// Same invariant for a single SVSS session (share + reconstruct).
TEST_P(ReplaySweep, SvssTraceIsByteIdentical) {
  auto run = [&] {
    Runner r(cfg(GetParam()));
    auto res = r.run_svss(Fp(321));
    return std::make_tuple(trace_bytes(r.engine().log()),
                           res.all_honest_shared, res.all_honest_output,
                           r.engine().metrics().packets_delivered);
  };
  auto a = run();
  auto b = run();
  EXPECT_FALSE(std::get<0>(a).empty());
  EXPECT_EQ(a, b);
}

// The sweep above decides in round 1 on every scheduler, and a round that
// decides deals no coin.  Seed 92 under the random scheduler falls back
// to the coin in round 1, so this replay covers the lazily dealt SVSS
// coin: its dealing, reconstruction and output must replay byte for byte.
TEST(Replay, CoinFallbackTraceIsByteIdentical) {
  auto run = [] {
    RunnerConfig c;
    c.n = 4;
    c.t = 1;
    c.seed = 92;
    c.scheduler = SchedulerKind::kRandom;
    Runner r(c);
    auto res = r.run_aba({0, 1, 0, 1}, CoinMode::kSvss);
    const Metrics& m = r.engine().metrics();
    return std::make_tuple(
        trace_bytes(r.engine().log()), res.all_decided, res.value,
        m.packets_delivered, m.bytes_sent,
        m.packets_by_type[static_cast<std::size_t>(MsgType::kSvssBatchShares)]);
  };
  auto a = run();
  auto b = run();
  EXPECT_TRUE(std::get<1>(a));
  EXPECT_GT(std::get<5>(a), 0u) << "no coin was dealt (vacuous run)";
  EXPECT_EQ(a, b);
}

// Different seeds must not produce the same schedule (guards against the
// seed being silently ignored somewhere in the scheduler plumbing).
TEST(Replay, DifferentSeedsDiverge) {
  auto run = [](std::uint64_t seed) {
    auto c = cfg(SchedulerKind::kRandom);
    c.seed = seed;
    Runner r(c);
    (void)r.run_aba({0, 1, 1, 0}, CoinMode::kSvss);
    return trace_bytes(r.engine().log());
  };
  EXPECT_NE(run(1), run(2));
}

// Custom genome schedules (src/search/) must replay like the fixed kinds:
// the same config + genome produces byte-identical traces.  The genome
// exercises every interpreter feature — jitter stream, id match, class
// match (resolved through the Runner-attached ScheduleView), a delivery
// window, and a front pin.
TEST(Replay, GenomeScheduleTraceIsByteIdentical) {
  search::ScheduleGenome genome;
  genome.seed = 0xFEED5EED;
  genome.jitter = 512;
  search::Gene delay_deceived;
  delay_deceived.to_class = search::SlotClass::kDeceived;
  delay_deceived.delay = 1 << 14;
  genome.genes.push_back(delay_deceived);
  search::Gene windowed_front;
  windowed_front.from = 3;
  windowed_front.after = 100;
  windowed_front.until = 5'000;
  windowed_front.front = true;
  genome.genes.push_back(windowed_front);

  auto run = [&] {
    RunnerConfig c;
    c.n = 4;
    c.t = 1;
    c.seed = 20260808;
    c.scheduler_factory = search::make_genome_factory(genome);
    adversary::install_adversaries(
        c, adversary::StrategyKind::kColludingCabal, 1);
    Runner r(c);
    auto res = r.run_aba({0, 1, 1, 0}, CoinMode::kSvss);
    return std::make_tuple(trace_bytes(r.engine().log()), res.all_decided,
                           res.value,
                           r.engine().metrics().packets_delivered);
  };
  auto a = run();
  auto b = run();
  EXPECT_FALSE(std::get<0>(a).empty());
  EXPECT_EQ(a, b);
}

// Every committed corpus entry re-runs byte-identically within one build:
// two fresh replays of the stored recipe agree on rounds and on the
// chained trace fingerprint.  (corpus_replay_test.cpp separately pins the
// replay against the *stored* hash — the across-rebuild gate.)
TEST(Replay, CorpusEntriesReplayByteIdentically) {
  auto entries = search::load_corpus_dir(SVSS_CORPUS_DIR);
  ASSERT_FALSE(entries.empty())
      << "committed corpus at " << SVSS_CORPUS_DIR << " is empty";
  for (const auto& entry : entries) {
    auto a = search::replay_corpus_entry(entry);
    auto b = search::replay_corpus_entry(entry);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << entry.name;
    EXPECT_EQ(a.worst_rounds, b.worst_rounds) << entry.name;
    EXPECT_EQ(a.total_rounds, b.total_rounds) << entry.name;
    EXPECT_TRUE(a.decided) << entry.name;
    EXPECT_FALSE(a.capped) << entry.name;
    EXPECT_TRUE(a.safe) << entry.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ReplaySweep,
    ::testing::Values(SchedulerKind::kFifo, SchedulerKind::kRandom,
                      SchedulerKind::kLifo, SchedulerKind::kDelayLastHonest),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
      switch (info.param) {
        case SchedulerKind::kFifo: return std::string("Fifo");
        case SchedulerKind::kRandom: return std::string("Random");
        case SchedulerKind::kLifo: return std::string("Lifo");
        case SchedulerKind::kDelayLastHonest:
          return std::string("DelayLastHonest");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace svss

// Step-level unit tests for the agreement round machinery: BV-broadcast
// thresholds, AUX justification, CONF tier rules, coin fallback, and
// DECIDE aggregation — driven through a mock host.  A seeded differential
// test pins the flat bitset tallies against a node-container reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "aba/aba.hpp"
#include "common/rng.hpp"
#include "sim/scheduler.hpp"

namespace svss {
namespace {

class Noop : public IProcess {
 public:
  void start(Context&) override {}
  void on_packet(Context&, int, const Packet&) override {}
};

class MockAbaHost : public AbaHost {
 public:
  void rb_broadcast(Context&, const Message& m) override {
    broadcasts.push_back(m);
  }
  void send_direct(Context&, int to, Message m) override {
    directs.emplace_back(to, std::move(m));
  }
  void start_coin(Context&, std::uint32_t instance,
                  std::uint32_t round) override {
    coin_requests.emplace_back(instance, round);
  }
  void aba_decided(Context&, int value, std::uint32_t round,
                   std::uint32_t instance) override {
    decided_value = value;
    decided_round = round;
    decided_instance = instance;
  }

  // Messages of a given (subtype, round) sent to process 0 (one per
  // send_all fan-out).
  [[nodiscard]] std::vector<int> sent_values(int subtype,
                                             std::uint32_t round) const {
    std::vector<int> out;
    for (const auto& [to, m] : directs) {
      if (to == 0 && m.b == subtype &&
          static_cast<std::uint32_t>(m.a) == round) {
        out.push_back(m.ints[0]);
      }
    }
    return out;
  }

  std::vector<Message> broadcasts;
  std::vector<std::pair<int, Message>> directs;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> coin_requests;
  std::optional<int> decided_value;
  std::uint32_t decided_round = 0;
  std::uint32_t decided_instance = 0;
};

struct AbaUnit : public ::testing::Test {
  static constexpr int kN = 4;
  static constexpr int kT = 1;

  AbaUnit() : engine(kN, kT, 3, std::make_unique<FifoScheduler>()) {
    for (int i = 0; i < kN; ++i) engine.set_process(i, std::make_unique<Noop>());
  }

  Message vote(std::uint32_t round, int subtype, int payload) const {
    Message m;
    m.sid = SessionId{SessionPath::kAba, 0, -1, -1, -1, 0, 0};
    m.type = MsgType::kAbaVote;
    m.a = static_cast<std::int16_t>(round);
    m.b = static_cast<std::int16_t>(subtype);
    m.ints.push_back(payload);
    return m;
  }

  Engine engine;
  MockAbaHost host;
};

// The SVSS coin is lazy: entering a round sends EST and deals nothing.
TEST_F(AbaUnit, StartSendsEstWithoutDealingTheCoin) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0);
  s.start(ctx, 1);
  EXPECT_EQ(host.sent_values(0, 1), (std::vector<int>{1}));
  EXPECT_TRUE(host.coin_requests.empty());
}

TEST_F(AbaUnit, InstanceNamespacesCoinRounds) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0, /*instance=*/3);
  s.start(ctx, 0);
  EXPECT_TRUE(host.coin_requests.empty());
  s.on_peer_coin(ctx, 1);
  ASSERT_EQ(host.coin_requests.size(), 1u);
  EXPECT_EQ(host.coin_requests[0],
            (std::pair<std::uint32_t, std::uint32_t>{3u, 1u}));
  // The instance id travels in the session id of every vote.
  for (const auto& [to, m] : host.directs) {
    EXPECT_EQ(m.sid.instance, 3u);
    EXPECT_EQ(m.sid.counter, 0u);
  }
  // Coin results arrive as instance-local rounds (the host dispatches by
  // instance); out-of-range rounds are ignored.
  s.on_coin(ctx, 0, 1);
  s.on_coin(ctx, kCoinRoundsPerInstance, 1);
  EXPECT_FALSE(s.snapshot(1).has_coin);
  s.on_coin(ctx, 1, 1);
  EXPECT_TRUE(s.snapshot(1).has_coin);
}

TEST_F(AbaUnit, BvRelaysAtTPlusOneAndAcceptsAtTwoTPlusOne) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  s.start(ctx, 0);  // own EST(0) sent
  // One EST(1) is below the relay threshold.
  s.on_direct(ctx, 1, vote(1, 0, 1));
  EXPECT_TRUE(host.sent_values(0, 1) == (std::vector<int>{0}));
  // Second EST(1): t+1 = 2 -> relay.
  s.on_direct(ctx, 2, vote(1, 0, 1));
  EXPECT_EQ(host.sent_values(0, 1), (std::vector<int>{0, 1}));
  EXPECT_FALSE(s.snapshot(1).bin[1]);
  // Third distinct sender: 2t+1 = 3 -> bin accepts, AUX goes out.
  s.on_direct(ctx, 3, vote(1, 0, 1));
  EXPECT_TRUE(s.snapshot(1).bin[1]);
  EXPECT_TRUE(s.snapshot(1).aux_sent);
}

TEST_F(AbaUnit, AuxRequiresJustifiedValues) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  s.start(ctx, 1);
  // bin = {1} via ESTs (the mock host does not self-deliver, so three
  // peers supply the 2t+1 quorum).
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, vote(1, 0, 1));
  EXPECT_TRUE(s.snapshot(1).bin[1]);
  // AUX(0) from 3 senders, but 0 is not in bin: V must not freeze even
  // though n - t AUX messages are present.
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, vote(1, 1, 0));
  EXPECT_FALSE(s.snapshot(1).v_frozen);
  // Once 0 joins bin, the buffered AUX(0) become justified: V freezes.
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, vote(1, 0, 0));
  EXPECT_TRUE(s.snapshot(1).v_frozen);
  EXPECT_TRUE(s.snapshot(1).conf_sent);
  ASSERT_EQ(host.broadcasts.size(), 1u);
  EXPECT_EQ(host.broadcasts[0].ints[0], 1);  // set code of {0}
}

// Drives a session to the CONF stage with bin = {0, 1}, V = {1}.
void drive_to_conf(Context& ctx, AbaSession& s, AbaUnit& f) {
  s.start(ctx, 1);
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, f.vote(1, 0, 1));
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, f.vote(1, 0, 0));
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, f.vote(1, 1, 1));
}

TEST_F(AbaUnit, ConfSupermajorityDecides) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  drive_to_conf(ctx, s, *this);
  // 2t+1 = 3 CONF {1} singletons: decide 1 in round 1.
  for (int from : {1, 2, 3}) s.on_broadcast(ctx, from, vote(1, 2, 2));
  ASSERT_TRUE(s.decided());
  EXPECT_EQ(s.decision(), 1);
  EXPECT_EQ(s.decision_round(), 1u);
  EXPECT_EQ(host.decided_value, 1);
  // DECIDE(1) fan-out happened.
  EXPECT_FALSE(host.sent_values(3, 1).empty());
  // The session keeps participating: round 2 EST was sent.
  EXPECT_EQ(s.current_round(), 2u);
}

TEST_F(AbaUnit, ConfMinorityAdoptsWithoutDeciding) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  drive_to_conf(ctx, s, *this);
  // t+1 = 2 singletons {1}, one {0,1}: adopt est = 1, no decision.
  s.on_broadcast(ctx, 1, vote(1, 2, 2));
  s.on_broadcast(ctx, 2, vote(1, 2, 2));
  s.on_broadcast(ctx, 3, vote(1, 2, 3));
  EXPECT_FALSE(s.decided());
  EXPECT_EQ(s.current_round(), 2u);
  EXPECT_EQ(host.sent_values(0, 2), (std::vector<int>{1}));  // est carried
}

TEST_F(AbaUnit, NoTierFallsBackToCoin) {
  Context ctx(engine, 0);
  // Ideal coin mode: the coin is available synchronously.
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  drive_to_conf(ctx, s, *this);
  // All CONFs are {0,1}: no singleton tier; est := coin, round advances.
  for (int from : {1, 2, 3}) s.on_broadcast(ctx, from, vote(1, 2, 3));
  EXPECT_FALSE(s.decided());
  EXPECT_EQ(s.current_round(), 2u);
}

TEST_F(AbaUnit, SvssCoinArrivingLateStillAdvances) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0);
  drive_to_conf(ctx, s, *this);
  for (int from : {1, 2, 3}) s.on_broadcast(ctx, from, vote(1, 2, 3));
  // Frozen without a coin: stuck in round 1 until the coin lands.
  EXPECT_EQ(s.current_round(), 1u);
  EXPECT_TRUE(s.snapshot(1).conf_frozen);
  s.on_coin(ctx, 1, 0);
  EXPECT_EQ(s.current_round(), 2u);
}

// A frozen sample with no t+1 singleton is the one point of need: the
// round-1 coin is dealt exactly there, once.
TEST_F(AbaUnit, SvssCoinIsDealtWhenTheSampleFallsThrough) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0);
  drive_to_conf(ctx, s, *this);
  EXPECT_TRUE(host.coin_requests.empty());  // CONF not frozen yet
  s.on_broadcast(ctx, 1, vote(1, 2, 2));
  s.on_broadcast(ctx, 2, vote(1, 2, 3));
  EXPECT_TRUE(host.coin_requests.empty());
  s.on_broadcast(ctx, 3, vote(1, 2, 1));  // sample {1}, {0,1}, {0}
  ASSERT_TRUE(s.snapshot(1).conf_frozen);
  ASSERT_EQ(host.coin_requests.size(), 1u);
  EXPECT_EQ(host.coin_requests[0],
            (std::pair<std::uint32_t, std::uint32_t>{0u, 1u}));
  // Later votes of the frozen round re-run the tier rule, not the dealing.
  s.on_direct(ctx, 1, vote(1, 1, 1));
  s.on_peer_coin(ctx, 1);
  EXPECT_EQ(host.coin_requests.size(), 1u);
  s.on_coin(ctx, 1, 1);
  EXPECT_EQ(s.current_round(), 2u);
  EXPECT_EQ(host.sent_values(0, 2), (std::vector<int>{1}));
  EXPECT_EQ(host.coin_requests.size(), 1u);  // round 2 deals nothing
}

// A round whose sample decides, or adopts at t+1 singletons, never reads
// the coin and so never deals it.
TEST_F(AbaUnit, SvssCoinIsNotDealtInADecidingOrAdoptingRound) {
  Context ctx(engine, 0);
  AbaSession decider(host, 0, kN, kT, CoinMode::kSvss, 0);
  drive_to_conf(ctx, decider, *this);
  for (int from : {1, 2, 3}) decider.on_broadcast(ctx, from, vote(1, 2, 2));
  ASSERT_TRUE(decider.decided());
  EXPECT_EQ(decider.current_round(), 2u);

  AbaSession adopter(host, 0, kN, kT, CoinMode::kSvss, 0);
  drive_to_conf(ctx, adopter, *this);
  adopter.on_broadcast(ctx, 1, vote(1, 2, 2));
  adopter.on_broadcast(ctx, 2, vote(1, 2, 2));
  adopter.on_broadcast(ctx, 3, vote(1, 2, 3));
  EXPECT_FALSE(adopter.decided());
  EXPECT_EQ(adopter.current_round(), 2u);
  EXPECT_EQ(adopter.snapshot(1).singletons[1], 2u);
  EXPECT_TRUE(host.coin_requests.empty());
}

// A peer's dealing joins this process at once for a round it has reached
// (the current one or an earlier one), and on entry for a later round.
TEST_F(AbaUnit, PeerJoinDealsNowOrOnEnteringTheRound) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0);
  s.start(ctx, 1);
  s.on_peer_coin(ctx, 2);  // ahead of this process: deferred
  s.on_peer_coin(ctx, 0);  // out of range: ignored
  s.on_peer_coin(ctx, kCoinRoundsPerInstance);
  EXPECT_TRUE(host.coin_requests.empty());
  s.on_peer_coin(ctx, 1);  // the current round: dealt now
  ASSERT_EQ(host.coin_requests.size(), 1u);
  EXPECT_EQ(host.coin_requests[0].second, 1u);
  s.on_peer_coin(ctx, 1);  // idempotent
  EXPECT_EQ(host.coin_requests.size(), 1u);

  // Decide in round 1: entering round 2 honours the deferred join.
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, vote(1, 0, 1));
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, vote(1, 1, 1));
  for (int from : {1, 2, 3}) s.on_broadcast(ctx, from, vote(1, 2, 2));
  ASSERT_EQ(s.current_round(), 2u);
  ASSERT_EQ(host.coin_requests.size(), 2u);
  EXPECT_EQ(host.coin_requests[1].second, 2u);
  // An earlier round this process passed without dealing: dealt now.
  AbaSession late(host, 0, kN, kT, CoinMode::kSvss, 0);
  late.start(ctx, 1);
  for (int from : {1, 2, 3}) late.on_direct(ctx, from, vote(1, 0, 1));
  for (int from : {1, 2, 3}) late.on_direct(ctx, from, vote(1, 1, 1));
  for (int from : {1, 2, 3}) late.on_broadcast(ctx, from, vote(1, 2, 2));
  ASSERT_EQ(late.current_round(), 2u);
  ASSERT_EQ(host.coin_requests.size(), 2u);
  late.on_peer_coin(ctx, 1);
  ASSERT_EQ(host.coin_requests.size(), 3u);
  EXPECT_EQ(host.coin_requests[2].second, 1u);
}

// A join that arrives before start() — or before the host applied the
// coin mode chosen at start — is remembered and honoured on entry.
TEST_F(AbaUnit, PeerJoinBeforeStartIsHonoured) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0);
  s.on_peer_coin(ctx, 1);
  EXPECT_TRUE(host.coin_requests.empty());
  s.start(ctx, 0);
  ASSERT_EQ(host.coin_requests.size(), 1u);
  EXPECT_EQ(host.coin_requests[0].second, 1u);

  // Created for an early peer message under another mode; set_coin at
  // start applies the SVSS coin and the earlier join still counts.
  AbaSession early(host, 0, kN, kT, CoinMode::kIdealCommon, 0);
  early.on_peer_coin(ctx, 1);
  early.set_coin(CoinMode::kSvss, 0);
  early.start(ctx, 0);
  ASSERT_EQ(host.coin_requests.size(), 2u);
  EXPECT_FALSE(early.snapshot(1).has_coin);  // no ideal coin drawn
  early.set_coin(CoinMode::kIdealCommon, 0);  // no effect once started
  early.on_coin(ctx, 1, 1);
  EXPECT_TRUE(early.snapshot(1).has_coin);
}

// The other coin sources draw on entry as before and ignore peer joins.
TEST_F(AbaUnit, PeerJoinIgnoredOutsideSvssMode) {
  Context ctx(engine, 0);
  for (CoinMode mode : {CoinMode::kLocal, CoinMode::kIdealCommon}) {
    AbaSession s(host, 0, kN, kT, mode, 7);
    s.on_peer_coin(ctx, 1);
    s.start(ctx, 0);
    s.on_peer_coin(ctx, 1);
    EXPECT_TRUE(s.snapshot(1).has_coin);
  }
  EXPECT_TRUE(host.coin_requests.empty());
}

TEST_F(AbaUnit, DecideAggregationFromTPlusOneAnnouncements) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  s.start(ctx, 0);
  s.on_direct(ctx, 2, vote(1, 3, 1));
  EXPECT_FALSE(s.decided());
  s.on_direct(ctx, 3, vote(1, 3, 1));  // t+1 = 2 announcements
  ASSERT_TRUE(s.decided());
  EXPECT_EQ(s.decision(), 1);
}

TEST_F(AbaUnit, MalformedVotesIgnored) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  s.start(ctx, 1);
  s.on_direct(ctx, 1, vote(1, 0, 7));       // non-binary value
  s.on_direct(ctx, 1, vote(0, 0, 1));       // round 0
  s.on_broadcast(ctx, 1, vote(1, 2, 0));    // CONF code 0 invalid
  s.on_broadcast(ctx, 1, vote(1, 2, 9));    // CONF code out of range
  auto snap = s.snapshot(1);
  // No valid vote was recorded (the mock host does not self-deliver).
  EXPECT_EQ(snap.est_senders[0] + snap.est_senders[1], 0u);
  EXPECT_EQ(snap.conf_senders, 0u);
}

TEST_F(AbaUnit, LocalCoinModeSuppliesCoinImmediately) {
  Context ctx(engine, 0);
  AbaSession s(host, 0, kN, kT, CoinMode::kLocal, 0);
  s.start(ctx, 0);
  EXPECT_TRUE(s.snapshot(1).has_coin);
  EXPECT_TRUE(host.coin_requests.empty());
}

// ---------------------------------------------------------------------
// Differential test: AbaSession against a std::set/std::map reference
// ---------------------------------------------------------------------
namespace ref {

// The round logic as it stood before the flat tallies: per-round vote
// tallies in std::set/std::map nodes, CONF sets decoded into std::set, a
// scratch sample vector per progress() call.  The additions are the
// sender/origin range check the flat tallies need before indexing a pid
// set, and the lazy SVSS coin rule (deal on a sample that falls through
// to the coin, or on a peer's join for a reached round); every threshold,
// send and send order is otherwise unchanged.
constexpr std::uint32_t kMaxRound = kCoinRoundsPerInstance - 1;

SessionId aba_sid(std::uint32_t instance) {
  return SessionId{SessionPath::kAba, 0, -1, -1, -1, 0, instance};
}

Message vote_msg(std::uint32_t instance, std::uint32_t round, int subtype,
                 int payload) {
  Message m;
  m.sid = aba_sid(instance);
  m.type = MsgType::kAbaVote;
  m.a = static_cast<std::int16_t>(round);
  m.b = static_cast<std::int16_t>(subtype);
  m.ints.push_back(payload);
  return m;
}

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Session {
 public:
  Session(AbaHost& host, int self, int n, int t, CoinMode mode,
          std::uint64_t common_seed, std::uint32_t instance)
      : host_(host), self_(self), n_(n), t_(t), mode_(mode),
        common_seed_(common_seed), instance_(instance) {}

  void start(Context& ctx, int input) {
    if (started_) return;
    started_ = true;
    est_ = input != 0 ? 1 : 0;
    enter_round(ctx, 1);
  }

  void on_direct(Context& ctx, int from, const Message& m) {
    if (m.type != MsgType::kAbaVote || m.ints.size() != 1) return;
    if (m.a < 1 || static_cast<std::uint32_t>(m.a) > kMaxRound) return;
    if (from < 0 || from >= n_) return;
    auto r = static_cast<std::uint32_t>(m.a);
    int v = m.ints[0];
    switch (m.b) {
      case 0:
        if (v != 0 && v != 1) return;
        rounds_[r].est_from[v].insert(from);
        break;
      case 1:
        if (v != 0 && v != 1) return;
        rounds_[r].aux_from.emplace(from, v);
        break;
      case 3:
        if (v != 0 && v != 1) return;
        decide_from_[v].insert(from);
        if (static_cast<int>(decide_from_[v].size()) >= t_ + 1) {
          decide(ctx, v);
        }
        break;
      default:
        return;
    }
    if (started_ && r == round_) progress(ctx);
  }

  void on_broadcast(Context& ctx, int origin, const Message& m) {
    if (m.type != MsgType::kAbaVote || m.b != 2 || m.ints.size() != 1) return;
    if (m.a < 1 || static_cast<std::uint32_t>(m.a) > kMaxRound) return;
    if (origin < 0 || origin >= n_) return;
    auto set = decode_set(m.ints[0]);
    if (!set) return;
    auto r = static_cast<std::uint32_t>(m.a);
    rounds_[r].conf_from.emplace(origin, std::move(*set));
    if (started_ && r == round_) progress(ctx);
  }

  void on_coin(Context& ctx, std::uint32_t round, int bit) {
    if (mode_ != CoinMode::kSvss) return;
    if (round < 1 || round > kMaxRound) return;
    rounds_[round].coin = bit != 0 ? 1 : 0;
    if (started_ && round == round_) progress(ctx);
  }

  void on_peer_coin(Context& ctx, std::uint32_t round) {
    if (round < 1 || round > kMaxRound) return;
    rounds_[round].peer_joined = true;
    if (started_ && round <= round_ && mode_ == CoinMode::kSvss) {
      request_coin(ctx, round);
    }
  }

  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] int decision() const { return *decision_; }
  [[nodiscard]] std::uint32_t decision_round() const { return decision_round_; }
  [[nodiscard]] std::uint32_t current_round() const { return round_; }

  [[nodiscard]] AbaSession::RoundSnapshot snapshot(std::uint32_t r) const {
    AbaSession::RoundSnapshot s;
    auto it = rounds_.find(r);
    if (it == rounds_.end()) return s;
    const Round& st = it->second;
    s.est_senders[0] = st.est_from[0].size();
    s.est_senders[1] = st.est_from[1].size();
    s.bin[0] = st.bin[0];
    s.bin[1] = st.bin[1];
    s.aux_sent = st.aux_sent;
    s.aux_senders = st.aux_from.size();
    s.v_frozen = st.v.has_value();
    s.conf_sent = st.conf_sent;
    s.conf_senders = st.conf_from.size();
    s.conf_frozen = st.conf_frozen;
    s.singletons[0] = static_cast<std::size_t>(st.singleton[0]);
    s.singletons[1] = static_cast<std::size_t>(st.singleton[1]);
    s.has_coin = st.coin.has_value();
    return s;
  }

 private:
  struct Round {
    std::set<int> est_from[2];
    bool est_sent[2] = {false, false};
    bool bin[2] = {false, false};
    bool aux_sent = false;
    std::map<int, int> aux_from;
    std::optional<std::set<int>> v;
    bool conf_sent = false;
    std::map<int, std::set<int>> conf_from;
    bool conf_frozen = false;
    int singleton[2] = {0, 0};
    std::optional<int> coin;
    bool coin_started = false;
    bool peer_joined = false;
    bool advanced = false;
  };

  static int encode_set(const std::set<int>& s) {
    int code = 0;
    for (int v : s) code |= 1 << v;
    return code;
  }

  static std::optional<std::set<int>> decode_set(int code) {
    if (code < 1 || code > 3) return std::nullopt;
    std::set<int> s;
    if (code & 1) s.insert(0);
    if (code & 2) s.insert(1);
    return s;
  }

  void enter_round(Context& ctx, std::uint32_t r) {
    round_ = r;
    Round& st = rounds_[r];
    send_est(ctx, r, est_);
    if (mode_ != CoinMode::kSvss || st.peer_joined) request_coin(ctx, r);
    progress(ctx);
  }

  void request_coin(Context& ctx, std::uint32_t r) {
    Round& st = rounds_[r];
    if (st.coin_started) return;
    st.coin_started = true;
    switch (mode_) {
      case CoinMode::kSvss:
        host_.start_coin(ctx, instance_, r);
        break;
      case CoinMode::kLocal:
        st.coin = ctx.rng().next_bool() ? 1 : 0;
        break;
      case CoinMode::kIdealCommon:
        st.coin = static_cast<int>(
            mix64(common_seed_ ^ (instance_ * kCoinRoundsPerInstance + r)) &
            1);
        break;
    }
  }

  void send_est(Context& ctx, std::uint32_t r, int v) {
    Round& st = rounds_[r];
    if (st.est_sent[v]) return;
    st.est_sent[v] = true;
    for (int to = 0; to < n_; ++to) {
      host_.send_direct(ctx, to, vote_msg(instance_, r, 0, v));
    }
  }

  void progress(Context& ctx) {
    std::uint32_t r = round_;
    Round& st = rounds_[r];
    if (st.advanced) return;
    for (int v = 0; v < 2; ++v) {
      if (static_cast<int>(st.est_from[v].size()) >= t_ + 1) {
        send_est(ctx, r, v);
      }
      if (!st.bin[v] &&
          static_cast<int>(st.est_from[v].size()) >= 2 * t_ + 1) {
        st.bin[v] = true;
        if (!st.aux_sent) {
          st.aux_sent = true;
          for (int to = 0; to < n_; ++to) {
            host_.send_direct(ctx, to, vote_msg(instance_, r, 1, v));
          }
        }
      }
    }
    if (!st.v && st.aux_sent) {
      std::set<int> vals;
      int count = 0;
      for (const auto& [sender, v] : st.aux_from) {
        if (st.bin[v]) {
          ++count;
          vals.insert(v);
        }
      }
      if (count >= n_ - t_) st.v = std::move(vals);
    }
    if (st.v && !st.conf_sent) {
      st.conf_sent = true;
      host_.rb_broadcast(ctx, vote_msg(instance_, r, 2, encode_set(*st.v)));
    }
    if (!st.v) return;
    if (!st.conf_frozen) {
      std::vector<const std::set<int>*> sample;
      for (const auto& [origin, set] : st.conf_from) {
        bool justified = true;
        for (int v : set) {
          if (!st.bin[v]) {
            justified = false;
            break;
          }
        }
        if (justified) sample.push_back(&set);
      }
      if (static_cast<int>(sample.size()) < n_ - t_) return;
      st.conf_frozen = true;
      for (const auto* s : sample) {
        if (s->size() == 1) st.singleton[*s->begin()]++;
      }
    }
    bool have_est = false;
    for (int v = 0; v < 2; ++v) {
      if (st.singleton[v] >= 2 * t_ + 1) {
        decide(ctx, v);
        est_ = v;
        have_est = true;
      } else if (st.singleton[v] >= t_ + 1) {
        est_ = v;
        have_est = true;
      }
    }
    if (!have_est) {
      if (!st.coin) {
        request_coin(ctx, r);
        return;
      }
      est_ = *st.coin;
    }
    st.advanced = true;
    enter_round(ctx, r + 1);
  }

  void decide(Context& ctx, int value) {
    if (decision_) return;
    decision_ = value;
    decision_round_ = round_;
    host_.aba_decided(ctx, value, round_, instance_);
    if (!decide_sent_) {
      decide_sent_ = true;
      for (int to = 0; to < n_; ++to) {
        host_.send_direct(ctx, to, vote_msg(instance_, round_, 3, value));
      }
    }
  }

  AbaHost& host_;
  int self_;
  int n_;
  int t_;
  CoinMode mode_;
  std::uint64_t common_seed_;
  std::uint32_t instance_;
  bool started_ = false;
  int est_ = 0;
  std::uint32_t round_ = 0;
  std::map<std::uint32_t, Round> rounds_;
  std::optional<int> decision_;
  std::uint32_t decision_round_ = 0;
  bool decide_sent_ = false;
  std::map<int, std::set<int>> decide_from_;
};

}  // namespace ref

// Records every host call, in order, as one line each.
class LoggingAbaHost : public AbaHost {
 public:
  void rb_broadcast(Context&, const Message& m) override {
    record("rb", -1, m);
  }
  void send_direct(Context&, int to, Message m) override {
    record("direct", to, m);
  }
  void start_coin(Context&, std::uint32_t instance,
                  std::uint32_t round) override {
    log.push_back("coin " + std::to_string(instance) + " " +
                  std::to_string(round));
  }
  void aba_decided(Context&, int value, std::uint32_t round,
                   std::uint32_t instance) override {
    log.push_back("decided " + std::to_string(value) + " " +
                  std::to_string(round) + " " + std::to_string(instance));
  }

  std::vector<std::string> log;

 private:
  void record(const char* kind, int to, const Message& m) {
    std::string line = std::string(kind) + " " + std::to_string(to) + " " +
                       std::to_string(m.sid.instance) + " " +
                       std::to_string(static_cast<int>(m.type)) + " " +
                       std::to_string(m.a) + " " + std::to_string(m.b);
    for (int x : m.ints) line += " " + std::to_string(x);
    log.push_back(std::move(line));
  }
};

bool same_snapshot(const AbaSession::RoundSnapshot& a,
                   const AbaSession::RoundSnapshot& b) {
  return a.est_senders[0] == b.est_senders[0] &&
         a.est_senders[1] == b.est_senders[1] && a.bin[0] == b.bin[0] &&
         a.bin[1] == b.bin[1] && a.aux_sent == b.aux_sent &&
         a.aux_senders == b.aux_senders && a.v_frozen == b.v_frozen &&
         a.conf_sent == b.conf_sent && a.conf_senders == b.conf_senders &&
         a.conf_frozen == b.conf_frozen &&
         a.singletons[0] == b.singletons[0] &&
         a.singletons[1] == b.singletons[1] && a.has_coin == b.has_coin;
}

// ~10k seeded events over 40 episodes of n in {4, 7, 10} and all three
// coin modes: EST/AUX/CONF/DECIDE across rounds 1-6 with duplicates,
// conflicting first AUX values and CONF sets, votes for rounds ahead of
// the session (and for the Byzantine round 4095), late coins, malformed
// values, peer coin joins for past, current and future rounds, and
// senders at -1, n and kMaxN (which both sides must ignore).  After every
// event the send logs (coin dealings included), decisions, rounds and
// per-round snapshots must match.
TEST(AbaDifferential, FlatTalliesMatchSetReferenceOnRandomEvents) {
  constexpr int kEpisodes = 40;
  constexpr int kEventsPerEpisode = 250;
  const CoinMode modes[] = {CoinMode::kSvss, CoinMode::kIdealCommon,
                            CoinMode::kLocal};
  Rng rng(0xABAD1FFULL);
  int decided_episodes = 0;
  int coin_dealings = 0;  // lazy SVSS coin dealings, both triggers
  std::uint32_t max_round = 0;
  for (int ep = 0; ep < kEpisodes; ++ep) {
    const int n = 4 + 3 * (ep % 3);
    const int t = (n - 1) / 3;
    const CoinMode mode = modes[(ep / 3) % 3];
    const auto instance = static_cast<std::uint32_t>(ep % 5);
    const std::uint64_t seed = 77 + static_cast<std::uint64_t>(ep);
    // Separate engines with equal seeds: the local coin draws from the
    // process's engine RNG, so each side needs its own identical stream.
    Engine eng_new(n, t, seed, std::make_unique<FifoScheduler>());
    Engine eng_ref(n, t, seed, std::make_unique<FifoScheduler>());
    for (int i = 0; i < n; ++i) {
      eng_new.set_process(i, std::make_unique<Noop>());
      eng_ref.set_process(i, std::make_unique<Noop>());
    }
    Context ctx_new(eng_new, 0);
    Context ctx_ref(eng_ref, 0);
    LoggingAbaHost host_new;
    LoggingAbaHost host_ref;
    AbaSession fresh(host_new, 0, n, t, mode, seed, instance);
    ref::Session model(host_ref, 0, n, t, mode, seed, instance);

    const int start_at = static_cast<int>(rng.next_below(40));
    const int bad_ids[] = {-1, n, static_cast<int>(kMaxN)};
    for (int ev = 0; ev < kEventsPerEpisode; ++ev) {
      if (ev == start_at) {
        int input = static_cast<int>(rng.next_below(2));
        fresh.start(ctx_new, input);
        model.start(ctx_ref, input);
      }
      // Mostly in-range senders; one event in 16 names an invalid id.
      int from = rng.next_below(16) == 0
                     ? bad_ids[rng.next_below(3)]
                     : static_cast<int>(rng.next_below(
                           static_cast<std::uint64_t>(n)));
      // Rounds cluster at the session's current round, with spill into
      // the next few rounds and the occasional far-future round.
      std::uint32_t cur = std::max<std::uint32_t>(1, model.current_round());
      std::uint32_t round = cur + static_cast<std::uint32_t>(
                                      rng.next_below(3));
      if (rng.next_below(4) == 0) {
        round = 1 + static_cast<std::uint32_t>(rng.next_below(6));
      }
      if (rng.next_below(64) == 0) round = kCoinRoundsPerInstance - 1;
      int value = static_cast<int>(rng.next_below(2));
      if (rng.next_below(50) == 0) value = 2;
      Message m = ref::vote_msg(instance, round, 0, value);
      switch (rng.next_below(10)) {
        case 0: case 1: case 2: case 3:  // EST
          m.b = 0;
          fresh.on_direct(ctx_new, from, m);
          model.on_direct(ctx_ref, from, m);
          break;
        case 4: case 5: case 6:  // AUX
          m.b = 1;
          fresh.on_direct(ctx_new, from, m);
          model.on_direct(ctx_ref, from, m);
          break;
        case 7: case 8:  // CONF, set codes 0..4 (0 and 4 invalid)
          m.b = 2;
          m.ints[0] = rng.next_below(12) == 0
                          ? 4 * static_cast<int>(rng.next_below(2))
                          : 1 + static_cast<int>(rng.next_below(3));
          fresh.on_broadcast(ctx_new, from, m);
          model.on_broadcast(ctx_ref, from, m);
          break;
        default:
          if (rng.next_below(3) == 0) {  // DECIDE
            m.b = 3;
            fresh.on_direct(ctx_new, from, m);
            model.on_direct(ctx_ref, from, m);
          } else if (rng.next_below(2) == 0) {
            // Coin for this or an earlier round, possibly late.
            int bit = static_cast<int>(rng.next_below(2));
            std::uint32_t r = 1 + static_cast<std::uint32_t>(
                                      rng.next_below(cur + 1));
            fresh.on_coin(ctx_new, r, bit);
            model.on_coin(ctx_ref, r, bit);
          } else {
            // A peer's coin dealing, for a past, current or future round.
            fresh.on_peer_coin(ctx_new, round);
            model.on_peer_coin(ctx_ref, round);
          }
          break;
      }
      const std::string where =
          "episode " + std::to_string(ep) + " event " + std::to_string(ev);
      ASSERT_EQ(host_new.log.size(), host_ref.log.size()) << where;
      ASSERT_EQ(fresh.decided(), model.decided()) << where;
      if (model.decided()) {
        ASSERT_EQ(fresh.decision(), model.decision()) << where;
        ASSERT_EQ(fresh.decision_round(), model.decision_round()) << where;
      }
      ASSERT_EQ(fresh.current_round(), model.current_round()) << where;
      for (std::uint32_t r = 1; r <= model.current_round() + 3; ++r) {
        ASSERT_TRUE(same_snapshot(fresh.snapshot(r), model.snapshot(r)))
            << where << " round " << r;
      }
      ASSERT_TRUE(same_snapshot(fresh.snapshot(kCoinRoundsPerInstance - 1),
                                model.snapshot(kCoinRoundsPerInstance - 1)))
          << where;
    }
    ASSERT_EQ(host_new.log, host_ref.log) << "episode " << ep;
    for (const std::string& line : host_ref.log) {
      if (line.rfind("coin ", 0) == 0) ++coin_dealings;
    }
    if (model.decided()) ++decided_episodes;
    max_round = std::max(max_round, model.current_round());
  }
  // Non-vacuity: the random walk reaches decisions and later rounds.
  EXPECT_GE(decided_episodes, kEpisodes / 2);
  EXPECT_GE(max_round, 5u);
  EXPECT_GT(coin_dealings, 0);
}

TEST(AbaDifferential, RejectsSenderIdsOutsideTheProcessRange) {
  Engine engine(4, 1, 3, std::make_unique<FifoScheduler>());
  for (int i = 0; i < 4; ++i) engine.set_process(i, std::make_unique<Noop>());
  Context ctx(engine, 0);
  MockAbaHost host;
  AbaSession s(host, 0, 4, 1, CoinMode::kSvss, 0);
  s.start(ctx, 0);
  for (int from : {-1, 4, static_cast<int>(kMaxN), 1 << 20}) {
    for (int sub : {0, 1, 3}) {
      s.on_direct(ctx, from, ref::vote_msg(0, 1, sub, 1));
    }
    s.on_broadcast(ctx, from, ref::vote_msg(0, 1, 2, 2));
  }
  AbaSession::RoundSnapshot snap = s.snapshot(1);
  EXPECT_EQ(snap.est_senders[1], 0u);
  EXPECT_EQ(snap.aux_senders, 0u);
  EXPECT_EQ(snap.conf_senders, 0u);
  EXPECT_FALSE(s.decided());
  EXPECT_THROW(AbaSession(host, 0, static_cast<int>(kMaxN) + 1, 1,
                          CoinMode::kSvss, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace svss

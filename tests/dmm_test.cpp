// Unit tests: the DMM protocol (Section 3.3) — expectation bookkeeping,
// explicit detection (rules 2-3), discard (rule 4), and the ->_i delay
// order (rule 5).
#include "dmm/dmm.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/rng.hpp"
#include "core/node.hpp"
#include "sim/scheduler.hpp"

namespace svss {
namespace {

class Noop : public IProcess {
 public:
  void start(Context&) override {}
  void on_packet(Context&, int, const Packet&) override {}
};

SessionId mw_sid(std::uint32_t c, int dealer, int moderator) {
  SessionId sid;
  sid.path = SessionPath::kMwTop;
  sid.owner = static_cast<std::int16_t>(dealer);
  sid.moderator = static_cast<std::int16_t>(moderator);
  sid.counter = c;
  return sid;
}

Message mw_msg(const SessionId& sid, MsgType type) {
  Message m;
  m.sid = sid;
  m.type = type;
  return m;
}

struct DmmFixture : public ::testing::Test {
  DmmFixture()
      : engine(4, 1, 1, std::make_unique<FifoScheduler>()),
        ctx(engine, 0),
        dmm(4, Dmm::Hooks{
            [this](Context&, int suspect, const SessionId& where) {
              shunned.emplace_back(suspect, where);
            },
            [this](Context&, int from, const Message& m, bool via_rb) {
              released.emplace_back(from, m.sid);
              (void)via_rb;
            }}) {
    for (int i = 0; i < 4; ++i) engine.set_process(i, std::make_unique<Noop>());
  }

  Dmm::Session& rec(const SessionId& s) { return dmm.intern(s); }
  bool filter(int from, const SessionId& s) {
    return dmm.filter(from, mw_msg(s, MsgType::kMwAck), true, dmm.find(s));
  }

  Engine engine;
  Context ctx;
  Dmm dmm;
  std::vector<std::pair<int, SessionId>> shunned;
  std::vector<std::pair<int, SessionId>> released;
};

TEST_F(DmmFixture, FreshSenderPassesFilter) {
  EXPECT_TRUE(filter(2, mw_sid(1, 0, 1)));
  EXPECT_EQ(dmm.buffered_messages(), 0u);
}

TEST_F(DmmFixture, AckExpectationResolvedByMatchingBroadcast) {
  SessionId s = mw_sid(1, 0, 1);
  dmm.add_ack_entry(ctx, /*sender=*/2, /*poly=*/3, rec(s), Fp(55));
  EXPECT_EQ(dmm.pending_expectations(2), 1u);
  EXPECT_TRUE(dmm.on_recon_value(ctx, 2, rec(s), 3, Fp(55)));
  EXPECT_EQ(dmm.pending_expectations(2), 0u);
  EXPECT_TRUE(dmm.detected().empty());
}

TEST_F(DmmFixture, AckExpectationViolationDetectsSender) {
  SessionId s = mw_sid(1, 0, 1);
  dmm.add_ack_entry(ctx, 2, 3, rec(s), Fp(55));
  EXPECT_FALSE(dmm.on_recon_value(ctx, 2, rec(s), 3, Fp(56)));
  EXPECT_TRUE(dmm.discards(2));
  ASSERT_EQ(shunned.size(), 1u);
  EXPECT_EQ(shunned[0].first, 2);
  EXPECT_EQ(shunned[0].second, s);
}

TEST_F(DmmFixture, DealExpectationOnlyMatchesOwnPolyIndex) {
  SessionId s = mw_sid(1, 1, 2);
  dmm.add_deal_entry(ctx, 3, rec(s), Fp(7));
  // Broadcast for someone else's polynomial: not our expectation.
  EXPECT_TRUE(dmm.on_recon_value(ctx, 3, rec(s), /*poly=*/2, Fp(999)));
  EXPECT_EQ(dmm.pending_expectations(3), 1u);
  // Our polynomial (self == 0), wrong value: detection.
  EXPECT_FALSE(dmm.on_recon_value(ctx, 3, rec(s), /*poly=*/0, Fp(8)));
  EXPECT_TRUE(dmm.discards(3));
}

TEST_F(DmmFixture, DealExpectationResolvedByMatch) {
  SessionId s = mw_sid(1, 1, 2);
  dmm.add_deal_entry(ctx, 3, rec(s), Fp(7));
  EXPECT_TRUE(dmm.on_recon_value(ctx, 3, rec(s), 0, Fp(7)));
  EXPECT_EQ(dmm.pending_expectations(3), 0u);
}

// Definition 1: discarding starts with sessions ordered after the anchor
// (detection) session.  Concurrent sessions still flow; sessions begun
// after the anchor completed are dropped.
TEST_F(DmmFixture, DiscardAppliesToSessionsAfterTheAnchor) {
  SessionId s = mw_sid(1, 0, 1);
  SessionId concurrent = mw_sid(2, 0, 1);
  SessionId later = mw_sid(3, 0, 1);
  dmm.note_begin(s);
  dmm.note_begin(concurrent);
  dmm.add_ack_entry(ctx, 2, 3, rec(s), Fp(1));
  (void)dmm.on_recon_value(ctx, 2, rec(s), 3, Fp(2));  // detection
  EXPECT_TRUE(dmm.discards(2));
  // Anchor not completed yet: nothing is "after" it.
  EXPECT_FALSE(dmm.discard_applies(2, dmm.find(concurrent)));
  dmm.note_complete(rec(s));
  dmm.note_begin(later);
  EXPECT_FALSE(dmm.discard_applies(2, dmm.find(concurrent)));
  EXPECT_TRUE(dmm.discard_applies(2, dmm.find(later)));
  EXPECT_TRUE(filter(2, concurrent));
  EXPECT_FALSE(filter(2, later));
  EXPECT_EQ(dmm.buffered_messages(), 0u);  // discarded, not buffered
}

// Rule 5: messages from a sender with an unresolved expectation in a
// *preceding* session are delayed; sessions begun before the expectation's
// session completed are unaffected.
TEST_F(DmmFixture, DelayAppliesOnlyToLaterSessions) {
  SessionId s1 = mw_sid(1, 0, 1);
  SessionId s2 = mw_sid(2, 0, 1);  // begun before s1 completes
  SessionId s3 = mw_sid(3, 0, 1);  // begun after s1 completes
  dmm.note_begin(s1);
  dmm.note_begin(s2);
  dmm.add_ack_entry(ctx, 2, 3, rec(s1), Fp(5));
  dmm.note_complete(rec(s1));
  dmm.note_begin(s3);

  EXPECT_FALSE(dmm.is_blocked(2, dmm.find(s2)));
  EXPECT_TRUE(dmm.is_blocked(2, dmm.find(s3)));
  EXPECT_FALSE(dmm.is_blocked(1, dmm.find(s3)));  // other senders unaffected

  EXPECT_TRUE(filter(2, s2));
  EXPECT_FALSE(filter(2, s3));
  EXPECT_EQ(dmm.buffered_messages(), 1u);
}

TEST_F(DmmFixture, UnbeganSessionsCountAsLater) {
  SessionId s1 = mw_sid(1, 0, 1);
  SessionId s_future = mw_sid(9, 0, 1);  // never begun locally
  dmm.note_begin(s1);
  dmm.add_ack_entry(ctx, 2, 3, rec(s1), Fp(5));
  dmm.note_complete(rec(s1));
  EXPECT_TRUE(dmm.is_blocked(2, dmm.find(s_future)));
}

TEST_F(DmmFixture, IncompleteSessionNeverPrecedes) {
  SessionId s1 = mw_sid(1, 0, 1);
  SessionId s2 = mw_sid(2, 0, 1);
  dmm.note_begin(s1);
  dmm.add_ack_entry(ctx, 2, 3, rec(s1), Fp(5));
  // s1 never completes; s2 begins later but is not blocked.
  dmm.note_begin(s2);
  EXPECT_FALSE(dmm.is_blocked(2, dmm.find(s2)));
}

TEST_F(DmmFixture, ResolutionReleasesBufferedMessages) {
  SessionId s1 = mw_sid(1, 0, 1);
  SessionId s3 = mw_sid(3, 0, 1);
  dmm.note_begin(s1);
  dmm.add_ack_entry(ctx, 2, 3, rec(s1), Fp(5));
  dmm.note_complete(rec(s1));
  dmm.note_begin(s3);
  EXPECT_FALSE(filter(2, s3));
  EXPECT_EQ(dmm.buffered_messages(), 1u);

  EXPECT_TRUE(dmm.on_recon_value(ctx, 2, rec(s1), 3, Fp(5)));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].first, 2);
  EXPECT_EQ(released[0].second, s3);
  EXPECT_EQ(dmm.buffered_messages(), 0u);
}

TEST_F(DmmFixture, DetectionDropsBufferedMessages) {
  SessionId s1 = mw_sid(1, 0, 1);
  SessionId s3 = mw_sid(3, 0, 1);
  dmm.note_begin(s1);
  dmm.add_ack_entry(ctx, 2, 3, rec(s1), Fp(5));
  dmm.note_complete(rec(s1));
  dmm.note_begin(s3);
  (void)filter(2, s3);
  (void)dmm.on_recon_value(ctx, 2, rec(s1), 3, Fp(6));  // wrong value
  EXPECT_EQ(dmm.buffered_messages(), 0u);
  EXPECT_TRUE(released.empty());
}

// S' step 8: clearing DEAL expectations unblocks.
TEST_F(DmmFixture, ClearDealEntriesReleases) {
  SessionId s1 = mw_sid(1, 1, 2);
  SessionId s3 = mw_sid(3, 1, 2);
  dmm.note_begin(s1);
  dmm.add_deal_entry(ctx, 2, rec(s1), Fp(5));
  dmm.note_complete(rec(s1));
  dmm.note_begin(s3);
  EXPECT_FALSE(filter(2, s3));
  dmm.clear_deal_entries(ctx, rec(s1));
  EXPECT_EQ(dmm.pending_expectations(2), 0u);
  ASSERT_EQ(released.size(), 1u);
}

TEST_F(DmmFixture, DuplicateEntriesCountedOnce) {
  SessionId s = mw_sid(1, 0, 1);
  dmm.add_ack_entry(ctx, 2, 3, rec(s), Fp(5));
  dmm.add_ack_entry(ctx, 2, 3, rec(s), Fp(5));
  EXPECT_EQ(dmm.pending_expectations(2), 1u);
}

TEST_F(DmmFixture, ShunEventRecordedInLog) {
  SessionId s = mw_sid(1, 0, 1);
  dmm.add_ack_entry(ctx, 2, 3, rec(s), Fp(5));
  (void)dmm.on_recon_value(ctx, 2, rec(s), 3, Fp(6));
  auto pairs = engine.log().shun_pairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], std::make_pair(0, 2));
}

// The key quantitative fact behind the paper's O(n^2) bound: each (i, j)
// pair can produce at most one explicit detection — D_i is a set.
TEST_F(DmmFixture, RepeatedViolationsDetectOnlyOnce) {
  for (std::uint32_t c = 1; c <= 5; ++c) {
    SessionId s = mw_sid(c, 0, 1);
    dmm.add_ack_entry(ctx, 2, 3, rec(s), Fp(5));
    (void)dmm.on_recon_value(ctx, 2, rec(s), 3, Fp(6));
  }
  EXPECT_EQ(shunned.size(), 1u);
  EXPECT_EQ(engine.log().shun_pairs().size(), 1u);
}

// A message that rule 5 delays must not create its session's record or
// state machine: filter() is lookup-only, so a peer cannot make a node
// allocate sessions by naming them.
TEST(DmmNode, DelayedMessageCreatesNoSessionRecord) {
  Engine engine(4, 1, 1, std::make_unique<FifoScheduler>());
  for (int i = 0; i < 4; ++i) engine.set_process(i, std::make_unique<Noop>());
  Context ctx(engine, 0);
  Node node(0, 4, 1);
  Dmm& dmm = node.dmm();
  SessionId done = mw_sid(1, 0, 1);
  dmm.add_ack_entry(ctx, 2, 3, dmm.note_begin(done), Fp(5));
  dmm.note_complete(*dmm.find(done));  // sender 2 now blocks later sessions

  SessionId fresh = mw_sid(2, 2, 1);
  node.on_packet(ctx, 2, make_direct(mw_msg(fresh, MsgType::kMwEchoVal)));
  EXPECT_EQ(dmm.buffered_messages(), 1u);
  EXPECT_EQ(dmm.find(fresh), nullptr);
  EXPECT_EQ(node.find_mw(fresh), nullptr);
}

// ---------------------------------------------------------------------
// Differential check against the map-based layout the interned records
// replaced: the same semantics written with SessionId-keyed std::maps,
// with process ids outside [0, n) ignored.  Hooks only record, so neither
// implementation is re-entered.
// ---------------------------------------------------------------------
using Redelivery = std::tuple<int, SessionId, int, bool>;  // from, sid, tag, rb

class MapDmm {
 public:
  MapDmm(int n, int self) : n_(n), self_(self) {}

  bool filter(int from, const Message& m, bool via_rb) {
    if (discard_applies(from, m.sid)) return false;
    if (is_blocked(from, m.sid)) {
      delayed_[from].push_back(Delayed{from, via_rb, m});
      return false;
    }
    return true;
  }
  bool discard_applies(int j, const SessionId& s) const {
    auto it = anchor_.find(j);
    return it != anchor_.end() && precedes(it->second, s);
  }
  bool is_blocked(int from, const SessionId& sid) const {
    auto it = blocking_.find(from);
    if (it == blocking_.end() || it->second.empty()) return false;
    auto born = birth_.find(sid);
    return born == birth_.end() || *it->second.begin() <= born->second;
  }
  void note_begin(const SessionId& sid) { birth_.emplace(sid, completions_); }
  void note_complete(const SessionId& sid) {
    auto [it, inserted] = done_.emplace(sid, completions_ + 1);
    if (!inserted) return;
    ++completions_;
    seen_.erase(sid);
    for (const auto& [key, count] : open_) {
      if (key.second == sid && count > 0) {
        blocking_[key.first].insert(it->second);
      }
    }
  }
  void add_ack_entry(int sender, int poly, const SessionId& sid, Fp x) {
    if (!valid(sender) || !valid(poly)) return;
    if (resolved_early(sender, poly, sid, x)) return;
    if (ack_.emplace(std::make_tuple(sender, poly, sid), x).second) {
      ++open_[{sender, sid}];
    }
  }
  void add_deal_entry(int sender, const SessionId& sid, Fp x) {
    if (!valid(sender)) return;
    if (resolved_early(sender, self_, sid, x)) return;
    if (deal_.emplace(std::make_pair(sender, sid), x).second) {
      deal_senders_[sid].insert(sender);
      ++open_[{sender, sid}];
    }
  }
  void clear_deal_entries(const SessionId& sid) {
    auto node = deal_senders_.extract(sid);
    if (node.empty()) return;
    for (int s : node.mapped()) {
      deal_.erase({s, sid});
      drop_expectation(s, sid);
    }
  }
  bool on_recon_value(int origin, const SessionId& sid, int poly, Fp x) {
    if (!valid(origin) || !valid(poly)) return true;
    if (done_.count(sid) == 0) seen_[sid].emplace(std::pair(origin, poly), x);
    if (auto it = ack_.find({origin, poly, sid}); it != ack_.end()) {
      if (it->second != x) {
        add_to_d(origin, sid);
        return false;
      }
      ack_.erase(it);
      drop_expectation(origin, sid);
    }
    if (poly == self_) {
      if (auto it = deal_.find({origin, sid}); it != deal_.end()) {
        if (it->second != x) {
          add_to_d(origin, sid);
          return false;
        }
        deal_.erase(it);
        if (auto ds = deal_senders_.find(sid); ds != deal_senders_.end()) {
          ds->second.erase(origin);
          if (ds->second.empty()) deal_senders_.erase(ds);
        }
        drop_expectation(origin, sid);
      }
    }
    return true;
  }
  std::size_t pending_expectations(int sender) const {
    std::size_t total = 0;
    for (const auto& [key, count] : open_) {
      if (key.first == sender) total += static_cast<std::size_t>(count);
    }
    return total;
  }
  std::size_t buffered_messages() const {
    std::size_t total = 0;
    for (const auto& [from, msgs] : delayed_) total += msgs.size();
    return total;
  }

  std::set<int> detected;
  std::vector<std::pair<int, SessionId>> shuns;
  std::vector<Redelivery> released;

 private:
  struct Delayed {
    int from;
    bool via_rb;
    Message msg;
  };

  bool valid(int id) const { return id >= 0 && id < n_; }
  bool precedes(const SessionId& s, const SessionId& s2) const {
    if (s == s2) return false;
    auto done = done_.find(s);
    if (done == done_.end()) return false;
    auto born = birth_.find(s2);
    return born == birth_.end() || done->second <= born->second;
  }
  bool resolved_early(int sender, int poly, const SessionId& sid, Fp x) {
    auto sit = seen_.find(sid);
    if (sit == seen_.end()) return false;
    auto vit = sit->second.find({sender, poly});
    if (vit == sit->second.end()) return false;
    if (vit->second != x) add_to_d(sender, sid);
    return true;
  }
  void drop_expectation(int sender, const SessionId& sid) {
    auto it = open_.find({sender, sid});
    if (it == open_.end()) return;
    if (--it->second == 0) {
      open_.erase(it);
      if (auto done = done_.find(sid); done != done_.end()) {
        auto& orders = blocking_[sender];
        if (auto oit = orders.find(done->second); oit != orders.end()) {
          orders.erase(oit);
        }
      }
    }
    flush_delayed(sender);
  }
  void add_to_d(int j, const SessionId& where) {
    if (!detected.insert(j).second) return;
    anchor_.emplace(j, where);
    shuns.emplace_back(j, where);
    flush_delayed(j);
  }
  void flush_delayed(int sender) {
    auto it = delayed_.find(sender);
    if (it == delayed_.end()) return;
    std::vector<Delayed> keep;
    std::vector<Delayed> release;
    for (auto& d : it->second) {
      if (discard_applies(sender, d.msg.sid)) continue;
      (is_blocked(sender, d.msg.sid) ? keep : release).push_back(d);
    }
    it->second = keep;
    for (const auto& d : release) {
      released.emplace_back(d.from, d.msg.sid, d.msg.ints[0], d.via_rb);
    }
  }

  int n_;
  int self_;
  std::map<int, SessionId> anchor_;
  std::map<std::tuple<int, int, SessionId>, Fp> ack_;
  std::map<std::pair<int, SessionId>, Fp> deal_;
  std::map<SessionId, std::set<int>> deal_senders_;
  std::map<std::pair<int, SessionId>, int> open_;
  std::map<int, std::multiset<std::uint64_t>> blocking_;
  std::map<int, std::vector<Delayed>> delayed_;
  std::map<SessionId, std::uint64_t> done_;
  std::map<SessionId, std::uint64_t> birth_;
  std::map<SessionId, std::map<std::pair<int, int>, Fp>> seen_;
  std::uint64_t completions_ = 0;
};

// About 10k seeded operations in 20 fresh episodes (detection is sticky,
// so long episodes would end with every sender discarded).  Values are
// mostly the session's true ones, so expectations resolve as well as
// detect; ids range over [-1, n + 1] so out-of-range ids are exercised.
TEST(DmmDifferential, MatchesMapReferenceOnRandomOperations) {
  constexpr int kN = 4;
  constexpr int kSelf = 0;
  Engine engine(kN, 1, 1, std::make_unique<FifoScheduler>());
  for (int i = 0; i < kN; ++i) engine.set_process(i, std::make_unique<Noop>());
  Context ctx(engine, kSelf);
  Rng rng(20080818);
  int tag = 0;
  std::size_t total_shuns = 0;
  std::size_t total_released = 0;
  for (int episode = 0; episode < 20; ++episode) {
    std::vector<std::pair<int, SessionId>> shuns;
    std::vector<Redelivery> released;
    Dmm dmm(kN, Dmm::Hooks{
                    [&](Context&, int j, const SessionId& where) {
                      shuns.emplace_back(j, where);
                    },
                    [&](Context&, int from, const Message& m, bool rb) {
                      released.emplace_back(from, m.sid, m.ints[0], rb);
                    }});
    MapDmm ref(kN, kSelf);
    auto pick = [&](std::uint64_t bound) {
      return static_cast<int>(rng.next_below(bound));
    };
    auto pid = [&] { return pick(kN + 3) - 1; };  // -1 .. kN + 1
    auto sid = [&] {
      return mw_sid(static_cast<std::uint32_t>(1 + pick(6)), 1, 2);
    };
    // The true value of f_poly(origin) in a session; 1 in 8 draws lie.
    auto value = [&](const SessionId& s, int origin, int poly) {
      Fp truth(static_cast<std::int64_t>(s.counter * 100 + origin * 10 + poly));
      return pick(8) == 0 ? truth + Fp(1) : truth;
    };
    for (int op = 0; op < 500; ++op) {
      const SessionId s = sid();
      const int j = pid();
      const int poly = pick(3) == 0 ? kSelf : pid();
      switch (pick(10)) {
        case 0:
          dmm.note_begin(s);
          ref.note_begin(s);
          break;
        case 1:
          dmm.note_complete(dmm.intern(s));
          ref.note_complete(s);
          break;
        case 2: {
          Fp x = value(s, j, poly);
          dmm.add_ack_entry(ctx, j, poly, dmm.intern(s), x);
          ref.add_ack_entry(j, poly, s, x);
          break;
        }
        case 3: {
          Fp x = value(s, j, kSelf);
          dmm.add_deal_entry(ctx, j, dmm.intern(s), x);
          ref.add_deal_entry(j, s, x);
          break;
        }
        case 4:
          if (pick(3) != 0) break;  // step 8 is rarer than the rest
          dmm.clear_deal_entries(ctx, dmm.intern(s));
          ref.clear_deal_entries(s);
          break;
        case 5:
        case 6: {
          Fp x = value(s, j, poly);
          ASSERT_EQ(dmm.on_recon_value(ctx, j, dmm.intern(s), poly, x),
                    ref.on_recon_value(j, s, poly, x))
              << "episode " << episode << " op " << op;
          break;
        }
        default: {
          Message m = mw_msg(s, MsgType::kMwAck);
          m.ints.push_back(tag++);
          const bool rb = pick(2) == 0;
          ASSERT_EQ(dmm.filter(j, m, rb, dmm.find(s)), ref.filter(j, m, rb))
              << "episode " << episode << " op " << op;
          break;
        }
      }
      ASSERT_EQ(dmm.detected(), ref.detected) << "op " << op;
      ASSERT_EQ(shuns, ref.shuns) << "op " << op;
      ASSERT_EQ(released, ref.released) << "op " << op;
      ASSERT_EQ(dmm.buffered_messages(), ref.buffered_messages())
          << "op " << op;
      for (int k = -1; k <= kN + 1; ++k) {
        ASSERT_EQ(dmm.pending_expectations(k), ref.pending_expectations(k))
            << "op " << op << " sender " << k;
      }
      const SessionId probe = sid();
      ASSERT_EQ(dmm.is_blocked(j, dmm.find(probe)), ref.is_blocked(j, probe));
      ASSERT_EQ(dmm.discard_applies(j, dmm.find(probe)),
                ref.discard_applies(j, probe));
    }
    total_shuns += shuns.size();
    total_released += released.size();
  }
  // Non-vacuity: the run exercised detection and rule-5 release.
  EXPECT_GT(total_shuns, 0u);
  EXPECT_GT(total_released, 0u);
}

}  // namespace
}  // namespace svss

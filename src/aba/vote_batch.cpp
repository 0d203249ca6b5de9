#include "aba/vote_batch.hpp"

#include "aba/aba.hpp"

namespace svss {

namespace {

constexpr std::uint32_t kMaxRound = kCoinRoundsPerInstance - 1;

// The canonical vote sid (aba.cpp's aba_sid): variant 0, no roles,
// counter 0, instance in the instance slot.
bool canonical_vote_sid(const SessionId& sid) {
  return sid.path == SessionPath::kAba && sid.variant == 0 &&
         sid.owner == -1 && sid.moderator == -1 && sid.svss_dealer == -1 &&
         sid.counter == 0;
}

bool round_ok(int round) {
  return round >= 1 && static_cast<std::uint32_t>(round) <= kMaxRound;
}

SessionId envelope_sid(std::uint32_t counter) {
  return SessionId{SessionPath::kAba, 4, -1, -1, -1, counter, 0};
}

Message sub_vote(std::uint32_t instance, std::uint32_t round, int subtype,
                 int value) {
  Message m;
  m.sid = SessionId{SessionPath::kAba, 0, -1, -1, -1, 0, instance};
  m.type = MsgType::kAbaVote;
  m.a = static_cast<std::int16_t>(round);
  m.b = static_cast<std::int16_t>(subtype);
  m.ints.push_back(value);
  return m;
}

// Rewrites a sub_vote() message in place with a validated run's fields.
void refill(Message& m, int instance, int round, int subtype, int value) {
  m.sid.instance = static_cast<std::uint32_t>(instance);
  m.a = static_cast<std::int16_t>(round);
  m.b = static_cast<std::int16_t>(subtype);
  m.ints[0] = value;
}

}  // namespace

AbaVoteBatcher::AbaVoteBatcher(int n) : n_(n) {
  direct_.resize(static_cast<std::size_t>(n));
}

bool AbaVoteBatcher::capture_broadcast(const Message& m) {
  if (m.type != MsgType::kAbaVote || !canonical_vote_sid(m.sid)) return false;
  if (m.b != 2 || m.ints.size() != 1 || !m.vals.empty() || !m.blob.empty()) {
    return false;
  }
  if (!round_ok(m.a)) return false;
  confs_.push_back(PendingConf{m.sid.instance,
                               static_cast<std::uint32_t>(m.a), m.ints[0]});
  return true;
}

bool AbaVoteBatcher::capture_direct(int to, const Message& m) {
  if (m.type != MsgType::kAbaVote || to < 0 || to >= n_) return false;
  if (!canonical_vote_sid(m.sid)) return false;
  if (m.ints.size() != 1 || !m.vals.empty() || !m.blob.empty()) return false;
  if (m.b != 0 && m.b != 1 && m.b != 3) return false;
  if (!round_ok(m.a)) return false;
  direct_[static_cast<std::size_t>(to)].push_back(
      PendingVote{m.sid.instance, static_cast<std::uint32_t>(m.a), m.b,
                  m.ints[0]});
  return true;
}

void AbaVoteBatcher::flush(EnvelopeEmit emit) {
  for (int to = 0; to < n_; ++to) {
    std::vector<PendingVote>& votes = direct_[static_cast<std::size_t>(to)];
    if (votes.empty()) continue;
    if (votes.size() == 1) {
      // A lone vote gains nothing from envelope framing; re-emit the
      // per-session message so single-instance runs keep their exact
      // unbatched wire image.
      const PendingVote& v = votes[0];
      emit(to, sub_vote(v.instance, v.round, v.subtype, v.value));
    } else {
      Message env;
      env.sid = envelope_sid(0);
      env.type = MsgType::kAbaBatchVote;
      env.ints.reserve(votes.size() * 4);
      for (const PendingVote& v : votes) {
        env.ints.push_back(static_cast<int>(v.instance));
        env.ints.push_back(static_cast<int>(v.round));
        env.ints.push_back(v.subtype);
        env.ints.push_back(v.value);
      }
      emit(to, std::move(env));
    }
    votes.clear();
  }
  if (confs_.empty()) return;
  if (confs_.size() == 1) {
    const PendingConf& c = confs_[0];
    emit(kBroadcastEnvelope, sub_vote(c.instance, c.round, 2, c.setcode));
  } else {
    Message env;
    env.sid = envelope_sid(flush_seq_++);
    env.type = MsgType::kAbaBatchConf;
    env.ints.reserve(confs_.size() * 3);
    for (const PendingConf& c : confs_) {
      env.ints.push_back(static_cast<int>(c.instance));
      env.ints.push_back(static_cast<int>(c.round));
      env.ints.push_back(c.setcode);
    }
    emit(kBroadcastEnvelope, std::move(env));
  }
  confs_.clear();
}

void AbaVoteBatcher::unpack(Context& ctx, int sender, const Message& m,
                            bool via_rb, UnpackSink sink) {
  if (m.sid.path != SessionPath::kAba || m.sid.variant != 4) return;
  if (m.sid.owner != -1 || m.sid.moderator != -1 || m.sid.svss_dealer != -1) {
    return;
  }
  if (m.sid.instance != 0) return;
  if (!m.vals.empty() || !m.blob.empty() || m.ints.empty()) return;

  // Every sub-vote is delivered through one Message refilled in place: the
  // sinks never keep a reference past the call, so the envelope costs one
  // ints buffer, not one per sub-vote.
  if (m.type == MsgType::kAbaBatchVote) {
    if (via_rb || m.sid.counter != 0) return;
    if (m.ints.size() % 4 != 0) return;
    // Validate the whole envelope before delivering anything, mirroring
    // the MW group transport: garbage drops whole.
    for (std::size_t i = 0; i < m.ints.size(); i += 4) {
      if (m.ints[i] < 0 || !round_ok(m.ints[i + 1])) return;
      int subtype = m.ints[i + 2];
      if (subtype != 0 && subtype != 1 && subtype != 3) return;
    }
    Message sub = sub_vote(0, 0, 0, 0);
    for (std::size_t i = 0; i < m.ints.size(); i += 4) {
      refill(sub, m.ints[i], m.ints[i + 1], m.ints[i + 2], m.ints[i + 3]);
      sink(ctx, sender, sub, /*via_rb=*/false);
    }
    return;
  }
  if (m.type == MsgType::kAbaBatchConf) {
    if (!via_rb) return;
    if (m.ints.size() % 3 != 0) return;
    for (std::size_t i = 0; i < m.ints.size(); i += 3) {
      if (m.ints[i] < 0 || !round_ok(m.ints[i + 1])) return;
    }
    Message sub = sub_vote(0, 0, 2, 0);
    for (std::size_t i = 0; i < m.ints.size(); i += 3) {
      refill(sub, m.ints[i], m.ints[i + 1], 2, m.ints[i + 2]);
      sink(ctx, sender, sub, /*via_rb=*/true);
    }
    return;
  }
}

}  // namespace svss

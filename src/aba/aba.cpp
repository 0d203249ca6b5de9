#include "aba/aba.hpp"

#include <stdexcept>

namespace svss {

namespace {

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

}  // namespace

AbaSession::AbaSession(AbaHost& host, int self, int n, int t, CoinMode mode,
                       std::uint64_t common_seed, std::uint32_t instance)
    : host_(host), self_(self), n_(n), t_(t), mode_(mode),
      common_seed_(common_seed), instance_(instance) {
  if (n < 1 || n > static_cast<int>(kMaxN)) {
    throw std::invalid_argument("AbaSession: n must lie in [1, kMaxN]");
  }
}

AbaSession::Round& AbaSession::round_state(std::uint32_t r) {
  return rounds_[r];
}

AbaSession::RoundSnapshot AbaSession::snapshot(std::uint32_t r) const {
  RoundSnapshot s;
  auto it = rounds_.find(r);
  if (it == rounds_.end()) return s;
  const Round& st = it->second;
  s.est_senders[0] = static_cast<std::size_t>(st.est[0].count);
  s.est_senders[1] = static_cast<std::size_t>(st.est[1].count);
  s.bin[0] = st.bin[0];
  s.bin[1] = st.bin[1];
  s.aux_sent = st.aux_sent;
  s.aux_senders = st.aux_from.count();
  s.v_frozen = st.v != 0;
  s.conf_sent = st.conf_sent;
  s.conf_senders = st.conf_from.count();
  s.conf_frozen = st.conf_frozen;
  s.singletons[0] = static_cast<std::size_t>(st.singleton[0]);
  s.singletons[1] = static_cast<std::size_t>(st.singleton[1]);
  s.has_coin = st.coin.has_value();
  return s;
}

void AbaSession::start(Context& ctx, int input) {
  if (started_) return;
  started_ = true;
  est_ = input != 0 ? 1 : 0;
  enter_round(ctx, 1);
}

void AbaSession::set_coin(CoinMode mode, std::uint64_t common_seed) {
  if (started_) return;
  mode_ = mode;
  common_seed_ = common_seed;
}

// The SVSS coin is dealt lazily (header): on entry only when a peer
// already joined this round.
void AbaSession::enter_round(Context& ctx, std::uint32_t r) {
  round_ = r;
  Round& st = round_state(r);
  send_est(ctx, st, r, est_);
  if (mode_ != CoinMode::kSvss || st.peer_joined) request_coin(ctx, st, r);
  progress(ctx);
}

void AbaSession::on_peer_coin(Context& ctx, std::uint32_t round) {
  if (round < 1 || round > kMaxRound) return;
  Round& st = round_state(round);
  st.peer_joined = true;
  if (started_ && round <= round_ && mode_ == CoinMode::kSvss) {
    request_coin(ctx, st, round);
  }
}

void AbaSession::request_coin(Context& ctx, Round& st, std::uint32_t r) {
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
          mix64(common_seed_ ^ (instance_ * kCoinRoundsPerInstance + r)) & 1);
      break;
  }
}

void AbaSession::send_est(Context& ctx, Round& st, std::uint32_t r, int v) {
  if (st.est_sent[v]) return;
  st.est_sent[v] = true;
  for (int to = 0; to < n_; ++to) {
    host_.send_direct(ctx, to, vote_msg(instance_, r, 0, v));
  }
}

// Votes from ids outside [0, n) are ignored before any tally is touched.
void AbaSession::on_direct(Context& ctx, int from, const Message& m) {
  if (m.type != MsgType::kAbaVote || m.ints.size() != 1) return;
  if (m.a < 1 || static_cast<std::uint32_t>(m.a) > kMaxRound) return;
  if (!pid_ok(from)) return;
  auto r = static_cast<std::uint32_t>(m.a);
  int v = m.ints[0];
  switch (m.b) {
    case 0:  // EST
      if (v != 0 && v != 1) return;
      round_state(r).est[v].add(from);
      break;
    case 1: {  // AUX
      if (v != 0 && v != 1) return;
      Round& st = round_state(r);
      if (first_from(st.aux_from, from)) ++st.aux_count[v];
      break;
    }
    case 3:  // DECIDE
      if (v != 0 && v != 1) return;
      decide_from_[v].add(from);
      if (decide_from_[v].count >= t_ + 1) decide(ctx, v);
      break;
    default:
      return;
  }
  if (started_ && r == round_) progress(ctx);
}

void AbaSession::on_broadcast(Context& ctx, int origin, const Message& m) {
  if (m.type != MsgType::kAbaVote || m.b != 2 || m.ints.size() != 1) return;
  if (m.a < 1 || static_cast<std::uint32_t>(m.a) > kMaxRound) return;
  int code = m.ints[0];
  if (code < 1 || code > 3 || !pid_ok(origin)) return;
  auto r = static_cast<std::uint32_t>(m.a);
  Round& st = round_state(r);
  if (first_from(st.conf_from, origin)) ++st.conf_count[code];
  if (started_ && r == round_) progress(ctx);
}

void AbaSession::on_coin(Context& ctx, std::uint32_t round, int bit) {
  if (mode_ != CoinMode::kSvss) return;
  if (round < 1 || round > kMaxRound) return;
  round_state(round).coin = bit != 0 ? 1 : 0;
  if (started_ && round == round_) progress(ctx);
}

// Rounds can advance several times per delivery: buffered future-round
// votes may already satisfy the next round's thresholds, and enter_round
// re-runs progress for the round it enters.
void AbaSession::progress(Context& ctx) {
  std::uint32_t r = round_;
  Round& st = round_state(r);
  if (st.advanced) return;

  // Stage 1 — BV-broadcast: relay at t+1, accept into bin at 2t+1.
  for (int v = 0; v < 2; ++v) {
    if (st.est[v].count >= t_ + 1) send_est(ctx, st, r, v);
    if (!st.bin[v] && st.est[v].count >= 2 * t_ + 1) {
      st.bin[v] = true;
      if (!st.aux_sent) {
        st.aux_sent = true;
        for (int to = 0; to < n_; ++to) {
          host_.send_direct(ctx, to, vote_msg(instance_, r, 1, v));
        }
      }
    }
  }
  // Stage 2 — AUX: freeze V as the union of n-t justified AUX values.
  if (st.v == 0 && st.aux_sent) {
    int count = 0;
    int vals = 0;
    for (int v = 0; v < 2; ++v) {
      if (st.bin[v] && st.aux_count[v] > 0) {
        count += st.aux_count[v];
        vals |= 1 << v;
      }
    }
    if (count >= n_ - t_) st.v = vals;
  }

  // Stage 3 — CONF via RB.
  if (st.v != 0 && !st.conf_sent) {
    st.conf_sent = true;
    host_.rb_broadcast(ctx, vote_msg(instance_, r, 2, st.v));
  }
  if (st.v == 0) return;
  if (!st.conf_frozen) {
    // The justified sample: CONF sets whose every value is in bin.
    const int bin_code = (st.bin[0] ? 1 : 0) | (st.bin[1] ? 2 : 0);
    int sample = 0;
    for (int code = 1; code <= 3; ++code) {
      if ((code & ~bin_code) == 0) sample += st.conf_count[code];
    }
    if (sample < n_ - t_) return;
    st.conf_frozen = true;
    st.singleton[0] = st.bin[0] ? st.conf_count[1] : 0;
    st.singleton[1] = st.bin[1] ? st.conf_count[2] : 0;
  }

  // Tier rule on the frozen sample.  Re-entered when the coin arrives
  // later than the CONF quota.
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
      // The one place the coin is read, so the lazy SVSS coin starts
      // here; its output comes back through on_coin.
      request_coin(ctx, st, r);
      return;
    }
    est_ = *st.coin;
  }
  st.advanced = true;
  enter_round(ctx, r + 1);
}

void AbaSession::decide(Context& ctx, int value) {
  if (decision_) return;
  decision_ = value;
  decision_round_ = round_;
  ctx.log().record(Event{EventKind::kAbaDecide, self_,
                         static_cast<int>(round_), aba_sid(instance_), value,
                         true});
  host_.aba_decided(ctx, value, round_, instance_);
  if (!decide_sent_) {
    decide_sent_ = true;
    for (int to = 0; to < n_; ++to) {
      host_.send_direct(ctx, to, vote_msg(instance_, round_, 3, value));
    }
  }
}

}  // namespace svss

#include "coin/batched_transport.hpp"

#include "coin/coin.hpp"

namespace svss {

BatchedSvssTransport::BatchedSvssTransport(int self, int n)
    : self_(self), n_(n) {}

SessionId BatchedSvssTransport::batch_sid(std::uint32_t round, int dealer,
                                          std::uint32_t instance) {
  SessionId sid;
  sid.path = SessionPath::kSvssCoin;
  sid.variant = 1;  // envelope, not an individual session
  sid.owner = static_cast<std::int16_t>(dealer);
  sid.counter = round * kMaxN;
  sid.instance = instance;
  return sid;
}

namespace {

std::uint64_t round_key(std::uint32_t instance, std::uint32_t round) {
  return (static_cast<std::uint64_t>(instance) << 32) | round;
}

}  // namespace

// ---------------------------------------------------------------------
// Dealer side
// ---------------------------------------------------------------------
void BatchedSvssTransport::begin_dealing(std::uint32_t instance,
                                         std::uint32_t round) {
  dealing_instance_ = instance;
  dealing_round_ = round;
  pending_vals_.assign(static_cast<std::size_t>(n_), FieldVec{});
  pending_count_.assign(static_cast<std::size_t>(n_), 0);
}

bool BatchedSvssTransport::capture_dealer_shares(int to, const Message& m) {
  if (m.type != MsgType::kSvssDealerShares ||
      m.sid.path != SessionPath::kSvssCoin || m.sid.owner != self_ ||
      m.sid.instance != dealing_instance_ ||
      m.sid.counter / kMaxN != dealing_round_ || to < 0 || to >= n_) {
    return false;
  }
  auto slot = static_cast<std::size_t>(to);
  FieldVec& vals = pending_vals_[slot];
  if (vals.empty()) {
    vals.reserve(static_cast<std::size_t>(n_) * m.vals.size());
  }
  vals.insert(vals.end(), m.vals.begin(), m.vals.end());
  pending_count_[slot]++;
  return true;
}

void BatchedSvssTransport::flush_dealing(EnvelopeEmit emit) {
  for (int to = 0; to < n_; ++to) {
    auto slot = static_cast<std::size_t>(to);
    // Dealing is all-or-nothing per round: anything else means a caller
    // misused the dealing bracket, and a partial batch would fail the
    // receiver's size check anyway.
    if (pending_count_[slot] != n_) continue;
    Message m;
    m.sid = batch_sid(dealing_round_, self_, dealing_instance_);
    m.type = MsgType::kSvssBatchShares;
    m.vals = std::move(pending_vals_[slot]);
    emit(to, std::move(m));
  }
  pending_vals_.clear();
  pending_count_.clear();
}

std::optional<Message> BatchedSvssTransport::capture_gset(const Message& m) {
  std::uint32_t round = m.sid.counter / kMaxN;
  int attachee = static_cast<int>(m.sid.counter % kMaxN);
  if (attachee >= n_) return std::nullopt;
  GsetParts& parts = gset_rounds_[round_key(m.sid.instance, round)];
  if (parts.parts.empty()) {
    parts.parts.resize(static_cast<std::size_t>(n_));
  }
  auto& slot = parts.parts[static_cast<std::size_t>(attachee)];
  if (slot) return std::nullopt;  // sessions broadcast their set once
  slot = std::make_pair(m.ints, m.blob);
  if (++parts.have < n_) return std::nullopt;

  Message batch;
  batch.sid = batch_sid(round, self_, m.sid.instance);
  batch.type = MsgType::kSvssBatchGset;
  Writer w;
  for (const auto& part : parts.parts) {
    w.int_vec(part->first);
    w.bytes(part->second);
  }
  batch.blob = std::move(w).take();
  gset_rounds_.erase(round_key(m.sid.instance, round));
  return batch;
}

// ---------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------
void BatchedSvssTransport::unpack(Context& ctx, int n, int t, int sender,
                                  const Message& m, bool via_rb,
                                  UnpackSink sink) {
  if (m.sid.path != SessionPath::kSvssCoin || m.sid.variant != 1 ||
      m.sid.counter % kMaxN != 0) {
    return;
  }
  std::uint32_t round = m.sid.counter / kMaxN;
  std::uint32_t instance = m.sid.instance;
  int dealer = m.sid.owner;

  if (m.type == MsgType::kSvssBatchShares) {
    // Share envelopes travel on the private dealer -> recipient channel.
    if (via_rb || !m.ints.empty() || !m.blob.empty()) return;
    auto per = 2 * (static_cast<std::size_t>(t) + 1);
    if (m.vals.size() != static_cast<std::size_t>(n) * per) return;
    for (int j = 0; j < n; ++j) {
      Message sub;
      sub.sid = coin_svss_id(round, dealer, j, instance);
      sub.type = MsgType::kSvssDealerShares;
      auto begin = m.vals.begin() + static_cast<std::ptrdiff_t>(j * per);
      sub.vals.assign(begin, begin + static_cast<std::ptrdiff_t>(per));
      sink(ctx, sender, sub, /*via_rb=*/false);
    }
    return;
  }

  if (m.type == MsgType::kSvssBatchGset) {
    // G-set envelopes arrive through RBC, exactly once, all-or-none.
    if (!via_rb || !m.vals.empty() || !m.ints.empty()) return;
    // Parse the whole envelope before dispatching: a malformed batch is
    // dropped in its entirety, mirroring RBC's treatment of garbage.
    Reader r(m.blob);
    std::vector<Message> subs;
    subs.reserve(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      auto ints = r.int_vec(static_cast<std::size_t>(n));
      auto blob = r.bytes();
      if (!ints || !blob) return;
      Message sub;
      sub.sid = coin_svss_id(round, dealer, j, instance);
      sub.type = MsgType::kSvssGset;
      sub.ints = std::move(*ints);
      sub.blob = std::move(*blob);
      subs.push_back(std::move(sub));
    }
    if (!r.exhausted()) return;
    for (const Message& sub : subs) {
      sink(ctx, sender, sub, /*via_rb=*/true);
    }
  }
}

}  // namespace svss

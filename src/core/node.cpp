#include "core/node.hpp"

namespace svss {

Node::Node(int self, int n, int t, bool batched_coin, bool batched_mw,
           bool batched_votes)
    : self_(self), n_(n), t_(t),
      rbc_([this](Context& ctx, int origin, const Message& m) {
        // Accepted broadcasts re-enter routing with the origin as sender;
        // the VSS layers' DMM filter applies the session-ordered discard.
        route_app(ctx, origin, m, /*via_rb=*/true);
      }),
      dmm_(n, Dmm::Hooks{
          /*on_shun=*/nullptr,
          /*redeliver=*/
          [this](Context& ctx, int from, const Message& m, bool via_rb) {
            route_app(ctx, from, m, via_rb);
          },
      }),
      coalescer_(rbc_, self, n, batched_coin, batched_mw, batched_votes) {}

// Every delivery cascade runs inside the coalescer's capture window:
// everything a delivery (or the start action) makes the sessions emit is
// coalesced and flushed before control returns to the engine.
void Node::start(Context& ctx) {
  coalescer_.cascade(ctx, [&] {
    if (start_action_) start_action_(ctx, *this);
  });
}

void Node::on_packet(Context& ctx, int from, const Packet& p) {
  coalescer_.cascade(ctx, [&] {
    if (p.is_rb) {
      rbc_.on_transport(ctx, from, p);
    } else {
      route_app(ctx, from, p.app, /*via_rb=*/false);
    }
  });
}

bool Node::sane_sid(const SessionId& sid) const {
  auto pid_ok = [this](int p) { return p >= 0 && p < n_; };
  switch (sid.path) {
    case SessionPath::kMwTop:
      return pid_ok(sid.owner) && pid_ok(sid.moderator) &&
             sid.owner != sid.moderator;
    case SessionPath::kMwInSvssTop:
      return pid_ok(sid.owner) && pid_ok(sid.moderator) &&
             pid_ok(sid.svss_dealer) && sid.owner != sid.moderator &&
             sid.variant <= 1;
    case SessionPath::kMwInSvssCoin:
      // Variants 2-3 are the group-envelope sid space (variant - 2 encodes
      // the children's variant); only kMwBatch* messages may use them.
      return pid_ok(sid.owner) && pid_ok(sid.moderator) &&
             pid_ok(sid.svss_dealer) && sid.owner != sid.moderator &&
             sid.variant <= 3;
    case SessionPath::kSvssTop:
    case SessionPath::kSvssCoin:
      return pid_ok(sid.owner);
    case SessionPath::kCoin:
    case SessionPath::kAba:
    case SessionPath::kTest:
      return true;
  }
  return false;
}

void Node::route_app(Context& ctx, int sender, const Message& m,
                     bool via_rb) {
  if (!sane_sid(m.sid)) return;
  if (Coalescer::is_envelope(m.type)) {
    // Batch envelope: split into the per-session messages, each of which
    // re-enters this routing (DMM filter, recon rules and vote validation
    // included).  Understood unconditionally, so batched and unbatched
    // peers interoperate.
    Coalescer::unpack(ctx, n_, t_, sender, m, via_rb,
                      [this](Context& c, int s, const Message& sub, bool rb) {
                        route_app(c, s, sub, rb);
                      });
    return;
  }
  switch (m.sid.path) {
    case SessionPath::kMwTop:
    case SessionPath::kMwInSvssTop:
    case SessionPath::kMwInSvssCoin:
      // Envelope sid space carrying a non-envelope type: no session lives
      // at variants 2-3.
      if (m.sid.variant > 1) return;
      deliver_mw(ctx, sender, m, via_rb);
      return;
    case SessionPath::kSvssTop:
    case SessionPath::kSvssCoin:
      deliver_svss(ctx, sender, m, via_rb);
      return;
    case SessionPath::kCoin:
      if (via_rb && m.sid.counter <= kMaxN * kMaxN) {
        coin(ctx, m.sid.instance, m.sid.counter).on_broadcast(ctx, sender, m);
      }
      return;
    case SessionPath::kAba: {
      // Variant 4 is the vote-envelope sid space; no session lives there.
      if (m.sid.variant >= 4) return;
      // variant 0 = the SVSS-coin agreement protocol; variant 1 = the
      // Ben-Or baseline (separate message space).
      if (m.sid.variant == 1) {
        if (benor_ && !via_rb) benor_->on_direct(ctx, sender, m);
        return;
      }
      if (m.sid.variant == 2) {
        if (!via_rb) return;
        if (acs_) {
          acs_->on_broadcast(ctx, sender, m);
        } else {
          pending_acs_.emplace_back(sender, m);
        }
        return;
      }
      if (m.sid.variant == 3) {
        if (!via_rb) return;
        if (sum_) {
          sum_->on_broadcast(ctx, sender, m);
        } else {
          pending_sum_.emplace_back(sender, m);
        }
        return;
      }
      // Create the instance lazily with the node's configured coin: ACS
      // instances receive peer votes before this process provides input.
      AbaSession& session = aba_instance(m.sid.instance);
      if (via_rb) {
        session.on_broadcast(ctx, sender, m);
      } else {
        session.on_direct(ctx, sender, m);
      }
      return;
    }
    case SessionPath::kTest:
      return;
  }
}

// One probe finds the session's record; the record is created only once
// the message passed the filter.
void Node::deliver_mw(Context& ctx, int sender, const Message& m,
                      bool via_rb) {
  Dmm::Session* rec = dmm_.find(m.sid);
  if (!dmm_.filter(sender, m, via_rb, rec)) return;
  if (rec == nullptr) rec = &dmm_.intern(m.sid);
  if (via_rb && m.type == MsgType::kMwReconVal && m.vals.size() == 1 &&
      m.a >= 0 && m.a < n_) {
    // DMM rules 2-3: resolve or violate reconstruction expectations
    // before the session acts on the value.
    if (!dmm_.on_recon_value(ctx, sender, *rec, m.a, m.vals[0])) return;
  }
  auto& s = machine<MwSvssSession>(*rec);
  if (via_rb) {
    s.on_broadcast(ctx, sender, m);
  } else {
    s.on_direct(ctx, sender, m);
  }
}

void Node::deliver_svss(Context& ctx, int sender, const Message& m,
                        bool via_rb) {
  Dmm::Session* rec = dmm_.find(m.sid);
  if (!dmm_.filter(sender, m, via_rb, rec)) return;
  auto& s = machine<SvssSession>(rec != nullptr ? *rec : dmm_.intern(m.sid));
  if (via_rb) {
    s.on_broadcast(ctx, sender, m);
  } else {
    s.on_direct(ctx, sender, m);
  }
  if (m.type == MsgType::kSvssDealerShares &&
      m.sid.path == SessionPath::kSvssCoin && sender == m.sid.owner &&
      sender != self_) {
    // A peer deals this coin round: join it (the lazy coin, aba/aba.hpp).
    // The agreement instance may not be started or even configured yet;
    // it remembers the join either way.
    aba_instance(m.sid.instance).on_peer_coin(ctx, m.sid.counter / kMaxN);
  }
}

// ---------------------------------------------------------------------
// Session access
// ---------------------------------------------------------------------
// A record's path fixes its machine's type: MW paths hold MwSvssSession,
// SVSS paths SvssSession.
template <typename Machine>
Machine& Node::machine(Dmm::Session& rec) {
  if (!rec.machine) {
    rec.machine = std::make_unique<Machine>(*this, rec.sid, self_, n_, t_);
  }
  return static_cast<Machine&>(*rec.machine);
}

MwSvssSession& Node::mw(Context& /*ctx*/, const SessionId& sid) {
  return machine<MwSvssSession>(dmm_.intern(sid));
}

SvssSession& Node::svss(Context& /*ctx*/, const SessionId& sid) {
  return machine<SvssSession>(dmm_.intern(sid));
}

namespace {
std::uint64_t coin_key(std::uint32_t instance, std::uint32_t round) {
  return (static_cast<std::uint64_t>(instance) << 32) | round;
}
}  // namespace

CoinSession& Node::coin(Context& ctx, std::uint32_t round) {
  return coin(ctx, 0, round);
}

CoinSession& Node::coin(Context& ctx, std::uint32_t instance,
                        std::uint32_t round) {
  (void)ctx;
  auto key = coin_key(instance, round);
  auto it = coins_.find(key);
  if (it == coins_.end()) {
    it = coins_
             .emplace(key, std::make_unique<CoinSession>(*this, round, self_,
                                                         n_, t_, instance))
             .first;
  }
  return *it->second;
}

void Node::start_aba(Context& ctx, int input, CoinMode mode,
                     std::uint64_t common_seed, std::uint32_t instance) {
  aba_mode_ = mode;
  aba_seed_ = common_seed;
  // A cascade of its own so out-of-cascade submissions (a daemon's
  // submit() between polls) still get batched framing; inside a delivery
  // cascade this runs in the already-open window.
  coalescer_.cascade(ctx, [&] {
    AbaSession& session = aba_instance(instance);
    session.set_coin(mode, common_seed);
    session.start(ctx, input);
  });
}

AbaSession& Node::aba_instance(std::uint32_t instance) {
  std::unique_ptr<AbaSession>& slot = abas_[instance];
  if (!slot) {
    slot = std::make_unique<AbaSession>(*this, self_, n_, t_, aba_mode_,
                                        aba_seed_, instance);
  }
  return *slot;
}

void Node::start_acs(Context& ctx, Bytes proposal, CoinMode mode,
                     std::uint64_t common_seed) {
  aba_mode_ = mode;
  aba_seed_ = common_seed;
  if (!acs_) {
    acs_ = std::make_unique<AcsSession>(*this, self_, n_, t_);
    for (auto& [sender, m] : pending_acs_) acs_->on_broadcast(ctx, sender, m);
    pending_acs_.clear();
  }
  acs_->start(ctx, std::move(proposal));
}

void Node::start_secure_sum(Context& ctx, Fp input, CoinMode mode,
                            std::uint64_t common_seed) {
  aba_mode_ = mode;
  aba_seed_ = common_seed;
  if (!sum_) {
    sum_ = std::make_unique<SecureSumSession>(*this, self_, n_, t_);
  }
  sum_->start(ctx, input);
  for (auto& [sender, m] : pending_sum_) sum_->on_broadcast(ctx, sender, m);
  pending_sum_.clear();
}

void Node::sum_start_acs(Context& ctx, Bytes proposal) {
  if (!acs_) {
    // The secure-sum ACS vouches on share completion, not on proposals,
    // and does not gate its output on proposal payloads.
    acs_ = std::make_unique<AcsSession>(
        *this, self_, n_, t_,
        AcsOptions{/*vouch_on_proposal=*/false, /*require_proposals=*/false});
    for (auto& [sender, m] : pending_acs_) acs_->on_broadcast(ctx, sender, m);
    pending_acs_.clear();
  }
  acs_->start(ctx, std::move(proposal));
}

void Node::sum_vouch(Context& ctx, int dealer) {
  if (acs_) acs_->mark_ready(ctx, dealer);
}

void Node::start_mvba(Context& ctx, Fp proposal, Fp default_value,
                      CoinMode mode, std::uint64_t common_seed) {
  aba_mode_ = mode;
  aba_seed_ = common_seed;
  if (!mvba_) {
    mvba_ = std::make_unique<MvbaSession>(*this, self_, n_, t_,
                                          default_value);
  }
  mvba_->start(ctx, proposal);
}

void Node::mvba_start_acs(Context& ctx, Bytes proposal) {
  if (!acs_) {
    acs_ = std::make_unique<AcsSession>(*this, self_, n_, t_);
    for (auto& [sender, m] : pending_acs_) acs_->on_broadcast(ctx, sender, m);
    pending_acs_.clear();
  }
  acs_->start(ctx, std::move(proposal));
}

SvssSession& Node::sum_svss(Context& ctx, const SessionId& sid) {
  return svss(ctx, sid);
}

void Node::acs_completed(Context& ctx,
                         const std::vector<std::pair<int, Bytes>>& subset) {
  if (sum_) sum_->on_acs_output(ctx, subset);
  if (mvba_) mvba_->on_acs_output(ctx, subset);
}

void Node::acs_start_aba(Context& ctx, std::uint32_t instance, int input) {
  AbaSession& session = aba_instance(instance);
  session.set_coin(aba_mode_, aba_seed_);
  session.start(ctx, input);
}

AbaSession* Node::aba(std::uint32_t instance) {
  const std::unique_ptr<AbaSession>* slot = abas_.find(instance);
  return slot == nullptr ? nullptr : slot->get();
}

const AbaSession* Node::aba(std::uint32_t instance) const {
  const std::unique_ptr<AbaSession>* slot = abas_.find(instance);
  return slot == nullptr ? nullptr : slot->get();
}

void Node::start_benor(Context& ctx, int input) {
  if (!benor_) {
    benor_ = std::make_unique<BenOrSession>(
        [this](Context& c, int to, Message m) {
          send_direct(c, to, std::move(m));
        },
        self_, n_, t_);
  }
  benor_->start(ctx, input);
}

const MwSvssSession* Node::find_mw(const SessionId& sid) const {
  const Dmm::Session* rec = dmm_.find(sid);
  return rec ? dynamic_cast<const MwSvssSession*>(rec->machine.get()) : nullptr;
}

const SvssSession* Node::find_svss(const SessionId& sid) const {
  const Dmm::Session* rec = dmm_.find(sid);
  return rec ? dynamic_cast<const SvssSession*>(rec->machine.get()) : nullptr;
}

const CoinSession* Node::find_coin(std::uint32_t round) const {
  return find_coin(0, round);
}

const CoinSession* Node::find_coin(std::uint32_t instance,
                                   std::uint32_t round) const {
  auto it = coins_.find(coin_key(instance, round));
  return it == coins_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------
// Host plumbing
// ---------------------------------------------------------------------
void Node::rb_broadcast(Context& ctx, const Message& m) {
  if (!coalescer_.capture_broadcast(ctx, m)) rbc_.broadcast(ctx, m);
}

void Node::send_direct(Context& ctx, int to, Message m) {
  if (!coalescer_.capture_direct(to, m)) {
    ctx.send(to, make_direct(std::move(m)));
  }
}

void Node::svss_batch_window(Context& ctx, std::uint32_t instance,
                             std::uint32_t round, bool open) {
  if (open) {
    coalescer_.begin_dealing(instance, round);
  } else {
    coalescer_.end_dealing(ctx);
  }
}

MwSvssSession& Node::mw_child(Context& ctx, const SessionId& child) {
  return mw(ctx, child);
}

SvssSession& Node::svss_child(Context& ctx, const SessionId& sid) {
  return svss(ctx, sid);
}

void Node::mw_share_completed(Context& ctx, const SessionId& sid) {
  if (auto parent = parent_session(sid)) {
    svss(ctx, *parent).on_child_share_complete(ctx, sid);
  }
  if (observers.mw_share_complete) observers.mw_share_complete(ctx, sid);
}

void Node::mw_recon_output(Context& ctx, const SessionId& sid,
                           std::optional<Fp> value) {
  if (auto parent = parent_session(sid)) {
    svss(ctx, *parent).on_child_output(ctx, sid, value);
  }
  if (observers.mw_output) observers.mw_output(ctx, sid, value);
  if (Dmm::Session* rec = dmm_.find(sid); rec != nullptr && rec->machine) {
    static_cast<MwSvssSession&>(*rec->machine).compact();
  }
}

void Node::svss_share_completed(Context& ctx, const SessionId& sid) {
  if (sid.path == SessionPath::kSvssCoin) {
    coin(ctx, sid.instance, sid.counter / kMaxN)
        .on_child_share_complete(ctx, sid);
  }
  if (sum_ && sid.path == SessionPath::kSvssTop &&
      sid.counter >= kSumCounterBase) {
    sum_->on_input_share_complete(ctx, sid);
  }
  if (observers.svss_share_complete) observers.svss_share_complete(ctx, sid);
}

void Node::svss_recon_output(Context& ctx, const SessionId& sid,
                             std::optional<Fp> value) {
  if (sid.path == SessionPath::kSvssCoin) {
    coin(ctx, sid.instance, sid.counter / kMaxN).on_child_output(ctx, sid,
                                                                 value);
  }
  if (observers.svss_output) observers.svss_output(ctx, sid, value);
}

void Node::coin_output(Context& ctx, std::uint32_t instance,
                       std::uint32_t round, int bit) {
  if (AbaSession* a = aba(instance)) a->on_coin(ctx, round, bit);
  if (instance == 0 && observers.coin_output) {
    observers.coin_output(ctx, round, bit);
  }
}

void Node::start_coin(Context& ctx, std::uint32_t instance,
                      std::uint32_t round) {
  coin(ctx, instance, round).start(ctx);
}

void Node::aba_decided(Context& ctx, int value, std::uint32_t round,
                       std::uint32_t instance) {
  if (acs_) acs_->on_aba_decided(ctx, instance, value);
  if (observers.aba_decided) {
    observers.aba_decided(ctx, value, round, instance);
  }
}

}  // namespace svss

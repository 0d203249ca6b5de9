#include "mwsvss/mwsvss.hpp"

#include <algorithm>

namespace svss {

MwSvssSession::MwSvssSession(MwHost& host, SessionId sid, int self, int n,
                             int t)
    : host_(host), sid_(sid), rec_(host_.dmm().note_begin(sid_)),
      self_(self), n_(n), t_(t),
      echo_from_(at(n)), lsets_(at(n)),
      monitor_vals_(self == sid.moderator ? at(n) : 0) {}

Message MwSvssSession::base_msg(MsgType type) const {
  Message m;
  m.sid = sid_;
  m.type = type;
  return m;
}

bool MwSvssSession::valid_pid_set(const std::vector<int>& ids) const {
  if (static_cast<int>(ids.size()) < n_ - t_) return false;
  PidSet seen;
  for (int id : ids) {
    if (!valid_pid(id) || seen.test(at(id))) return false;
    seen.set(at(id));
  }
  return true;
}

bool MwSvssSession::lset_acked(int l) const {
  const auto& ls = lsets_[at(l)];
  return !ls.empty() && std::all_of(ls.begin(), ls.end(), [this](int k) {
           return acked_.test(at(k));
         });
}

std::vector<int> MwSvssSession::members(const PidSet& set) const {
  std::vector<int> out;
  for (int id = 0; id < n_; ++id) {
    if (set.test(at(id))) out.push_back(id);
  }
  return out;
}

// ---------------------------------------------------------------------
// S' step 1: the dealer draws f with f(0) = s and f_l with
// f_l(0) = f(point(l)), then distributes.
// ---------------------------------------------------------------------
void MwSvssSession::deal(Context& ctx, Fp secret) {
  if (dealt_ || self_ != dealer()) return;
  dealt_ = true;
  dealer_f_ = Polynomial::random_with_constant(secret, t_, ctx.rng());
  dealer_polys_.reserve(static_cast<std::size_t>(n_));
  for (int l = 0; l < n_; ++l) {
    dealer_polys_.push_back(Polynomial::random_with_constant(
        dealer_f_.eval(point(l)), t_, ctx.rng()));
  }
  for (int j = 0; j < n_; ++j) {
    // f_1(j) .. f_n(j): one value of every monitored polynomial.
    Message shares = base_msg(MsgType::kMwDealerShares);
    shares.vals.reserve(static_cast<std::size_t>(n_));
    for (int l = 0; l < n_; ++l) {
      shares.vals.push_back(dealer_polys_[static_cast<std::size_t>(l)].eval(
          point(j)));
    }
    host_.send_direct(ctx, j, std::move(shares));
    // f_j(1) .. f_j(t+1): enough for j to reconstruct its own polynomial.
    Message poly = base_msg(MsgType::kMwDealerPoly);
    poly.vals = dealer_polys_[static_cast<std::size_t>(j)].evaluate_range(
        t_ + 1);
    host_.send_direct(ctx, j, std::move(poly));
  }
  Message whole = base_msg(MsgType::kMwDealerWhole);
  whole.vals = dealer_f_.evaluate_range(t_ + 1);
  host_.send_direct(ctx, moderator(), std::move(whole));
}

void MwSvssSession::set_moderator_input(Context& ctx, Fp s_prime) {
  if (self_ != moderator() || mod_input_) return;
  mod_input_ = s_prime;
  progress(ctx);
}

void MwSvssSession::on_direct(Context& ctx, int from, const Message& m) {
  if (compacted_) return;  // both phases done: progress() would ignore it
  switch (m.type) {
    case MsgType::kMwDealerShares:
      if (from != dealer() || row_vals_ ||
          static_cast<int>(m.vals.size()) != n_) {
        return;
      }
      row_vals_ = m.vals;
      break;
    case MsgType::kMwDealerPoly: {
      if (from != dealer() || my_poly_ ||
          static_cast<int>(m.vals.size()) != t_ + 1) {
        return;
      }
      std::vector<std::pair<Fp, Fp>> pts;
      for (int x = 1; x <= t_ + 1; ++x) {
        pts.emplace_back(Fp(x), m.vals[static_cast<std::size_t>(x - 1)]);
      }
      my_poly_ = Polynomial::interpolate(pts);
      break;
    }
    case MsgType::kMwDealerWhole: {
      if (from != dealer() || self_ != moderator() || whole_poly_ ||
          static_cast<int>(m.vals.size()) != t_ + 1) {
        return;
      }
      std::vector<std::pair<Fp, Fp>> pts;
      for (int x = 1; x <= t_ + 1; ++x) {
        pts.emplace_back(Fp(x), m.vals[static_cast<std::size_t>(x - 1)]);
      }
      whole_poly_ = Polynomial::interpolate(pts);
      break;
    }
    case MsgType::kMwEchoVal:
      // from sends f-hat^from_self: its received value of f_self(from).
      if (m.vals.size() != 1 || !valid_pid(from) || echo_from_[at(from)]) {
        return;
      }
      echo_from_[at(from)] = m.vals[0];
      break;
    case MsgType::kMwMonitorVal:
      // Monitor `from` hands the moderator its f-hat_from(0).
      if (self_ != moderator() || m.vals.size() != 1 || !valid_pid(from) ||
          monitor_vals_[at(from)]) {
        return;
      }
      monitor_vals_[at(from)] = m.vals[0];
      break;
    default:
      return;
  }
  progress(ctx);
}

void MwSvssSession::on_broadcast(Context& ctx, int origin, const Message& m) {
  if (compacted_ || !valid_pid(origin)) return;
  switch (m.type) {
    case MsgType::kMwAck:
      acked_.set(at(origin));
      break;
    case MsgType::kMwLset:
      if (!lsets_[at(origin)].empty() || !valid_pid_set(m.ints)) return;
      lsets_[at(origin)] = m.ints;
      break;
    case MsgType::kMwMset:
      if (origin != moderator() || mset_ || !valid_pid_set(m.ints)) return;
      mset_ = m.ints;
      // S' step 8: a process outside M-hat drops its DEAL expectations for
      // this session — its polynomial no longer matters.
      if (std::find(mset_->begin(), mset_->end(), self_) == mset_->end()) {
        host_.dmm().clear_deal_entries(ctx, rec_);
      }
      break;
    case MsgType::kMwOk:
      if (origin != dealer()) return;
      ok_seen_ = true;
      break;
    case MsgType::kMwReconVal: {
      // DMM rules 2-3 ran before this handler (see core::Node routing).
      if (m.vals.size() != 1 || !valid_pid(m.a)) return;
      if (recon_seen_.empty()) {
        recon_seen_.assign(
            static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
            false);
      }
      std::size_t bit = static_cast<std::size_t>(origin) *
                            static_cast<std::size_t>(n_) +
                        static_cast<std::size_t>(m.a);
      if (recon_seen_[bit]) return;
      recon_seen_[bit] = true;
      recon_vals_.push_back(ReconVal{origin, m.a, m.vals[0]});
      break;
    }
    default:
      return;
  }
  progress(ctx);
}

void MwSvssSession::progress(Context& ctx) {
  if (compacted_) return;
  try_echo_and_ack(ctx);
  try_add_deal_entries(ctx);
  try_broadcast_lset(ctx);
  if (self_ == moderator()) moderator_progress(ctx);
  if (self_ == dealer()) dealer_progress(ctx);
  try_complete_share(ctx);
  if (recon_started_) recon_progress(ctx);
}

// S' step 2: once both dealer messages are in, echo each value to its
// monitor and publicly acknowledge.
void MwSvssSession::try_echo_and_ack(Context& ctx) {
  if (echoed_ || !row_vals_ || !my_poly_) return;
  echoed_ = true;
  for (int l = 0; l < n_; ++l) {
    Message echo = base_msg(MsgType::kMwEchoVal);
    echo.vals.push_back((*row_vals_)[static_cast<std::size_t>(l)]);
    host_.send_direct(ctx, l, std::move(echo));
  }
  host_.rb_broadcast(ctx, base_msg(MsgType::kMwAck));
}

// S' step 3: confirmer l checks out for f_self — register the expectation
// that l will publicly confirm f_self(l) during reconstruction.  Entries
// are only added while L_self is still open: a confirmer outside the
// frozen L-hat set never broadcasts for us, so its expectation could never
// be resolved and would wrongly delay an honest process forever (this is
// the one place we deviate from the paper's letter; see DESIGN.md).
void MwSvssSession::try_add_deal_entries(Context& ctx) {
  if (!my_poly_ || lset_sent_) return;
  // S' step 8 extension: once M-hat is known and we are not a monitor in
  // it, f_self is irrelevant — registering further expectations would
  // create obligations nobody ever fulfills.
  if (mset_ && std::find(mset_->begin(), mset_->end(), self_) ==
                   mset_->end()) {
    return;
  }
  for (int l = 0; l < n_; ++l) {
    const auto& val = echo_from_[at(l)];
    if (!val || deal_added_.test(at(l)) || !acked_.test(at(l))) continue;
    if (*val == my_poly_->eval(point(l))) {
      deal_added_.set(at(l));
      host_.dmm().add_deal_entry(ctx, l, rec_, *val);
    }
  }
}

// S' step 4: enough confirmers — publish L_self and give the moderator the
// monitored point f_self(0).
void MwSvssSession::try_broadcast_lset(Context& ctx) {
  if (lset_sent_ || !my_poly_ ||
      static_cast<int>(deal_added_.count()) < n_ - t_) {
    return;
  }
  lset_sent_ = true;
  Message lset = base_msg(MsgType::kMwLset);
  lset.ints = members(deal_added_);
  host_.rb_broadcast(ctx, lset);
  Message mv = base_msg(MsgType::kMwMonitorVal);
  mv.vals.push_back(my_poly_->constant());
  host_.send_direct(ctx, moderator(), std::move(mv));
}

// S' steps 5-6: the moderator accepts monitors whose point agrees with the
// dealer's f and whose confirmers all acked, provided f(0) equals its own
// input s'; with n-t accepted monitors it publishes M.
void MwSvssSession::moderator_progress(Context& ctx) {
  if (mset_sent_ || !whole_poly_ || !mod_input_) return;
  if (whole_poly_->constant() != *mod_input_) return;  // dealer != moderator
  for (int j = 0; j < static_cast<int>(monitor_vals_.size()); ++j) {
    const auto& v = monitor_vals_[at(j)];
    if (!v || m_building_.test(at(j))) continue;
    if (*v != whole_poly_->eval(point(j)) || !lset_acked(j)) continue;
    m_building_.set(at(j));
  }
  if (static_cast<int>(m_building_.count()) >= n_ - t_) {
    mset_sent_ = true;
    Message mset = base_msg(MsgType::kMwMset);
    mset.ints = members(m_building_);
    host_.rb_broadcast(ctx, mset);
  }
}

// S' step 7: the dealer cross-checks the moderator's M against the L sets
// and acks it saw itself, registers ACK expectations for every (monitor,
// confirmer) pair, and publishes OK.
void MwSvssSession::dealer_progress(Context& ctx) {
  if (ok_sent_ || !dealt_ || !mset_) return;
  for (int j : *mset_) {
    if (!lset_acked(j)) return;
  }
  ok_sent_ = true;
  for (int j : *mset_) {
    for (int l : lsets_[at(j)]) {
      host_.dmm().add_ack_entry(
          ctx, l, j, rec_,
          dealer_polys_[static_cast<std::size_t>(j)].eval(point(l)));
    }
  }
  host_.rb_broadcast(ctx, base_msg(MsgType::kMwOk));
}

// S' step 9: OK + M-hat + all L-hat sets + all their acks == done.
void MwSvssSession::try_complete_share(Context& ctx) {
  if (share_done_ || !ok_seen_ || !mset_) return;
  for (int l : *mset_) {
    if (!lset_acked(l)) return;
  }
  share_done_ = true;
  ctx.log().record(
      Event{EventKind::kMwShareComplete, self_, -1, sid_, 0, false});
  host_.mw_share_completed(ctx, sid_);
}

// R' step 1: publish every value this process confirmed as some monitor's
// confirmer.
void MwSvssSession::start_reconstruct(Context& ctx) {
  if (recon_started_) return;
  recon_started_ = true;
  kvals_.resize(at(n_));
  fbar_.resize(at(n_));
  progress(ctx);
}

void MwSvssSession::recon_progress(Context& ctx) {
  // Everything below relies on the S' completion invariant: M-hat and the
  // L-hat set of every monitor in it are present.
  if (output_ready_ || !share_done_ || !mset_) return;
  if (!recon_broadcast_done_ && row_vals_) {
    recon_broadcast_done_ = true;
    for (int l : *mset_) {
      const auto& ls = lsets_[at(l)];
      if (std::find(ls.begin(), ls.end(), self_) == ls.end()) continue;
      Message rv = base_msg(MsgType::kMwReconVal);
      rv.a = static_cast<std::int16_t>(l);
      rv.vals.push_back((*row_vals_)[static_cast<std::size_t>(l)]);
      host_.rb_broadcast(ctx, rv);
    }
  }

  // R' steps 2-3: fold broadcast values into K_{self,l} in arrival order;
  // the first t+1 points of each monitor interpolate f-bar_l.
  for (; recon_cursor_ < recon_vals_.size(); ++recon_cursor_) {
    const ReconVal& rv = recon_vals_[recon_cursor_];
    if (std::find(mset_->begin(), mset_->end(), rv.l) == mset_->end()) {
      continue;
    }
    const auto& ls = lsets_[at(rv.l)];
    if (std::find(ls.begin(), ls.end(), rv.from) == ls.end()) continue;
    auto& k = kvals_[at(rv.l)];
    if (static_cast<int>(k.size()) >= t_ + 1) continue;
    k.emplace_back(point(rv.from), rv.x);
    if (static_cast<int>(k.size()) == t_ + 1 && !fbar_[at(rv.l)]) {
      fbar_[at(rv.l)] = Polynomial::interpolate(k);
    }
  }

  // R' step 4: with every monitor's polynomial in hand, interpolate f-bar
  // through the monitored points, or output bottom.
  for (int l : *mset_) {
    if (!fbar_[at(l)]) return;
  }
  std::vector<std::pair<Fp, Fp>> pts;
  pts.reserve(mset_->size());
  for (int l : *mset_) {
    pts.emplace_back(point(l), fbar_[at(l)]->constant());
  }
  auto f = Polynomial::interpolate_checked(pts, t_);
  output_ready_ = true;
  output_ = f ? std::optional<Fp>(f->constant()) : std::nullopt;
  ctx.log().record(Event{EventKind::kMwReconOutput, self_, -1, sid_,
                         output_ ? static_cast<std::int64_t>(output_->value())
                                 : 0,
                         output_.has_value()});
  host_.dmm().note_complete(rec_);
  host_.mw_recon_output(ctx, sid_, output_);
}

void MwSvssSession::compact() {
  if (!share_done_ || !output_ready_ || compacted_) return;
  compacted_ = true;
  // Assigning a fresh container frees the storage (`= {}` would keep it).
  auto release = [](auto& v) { v = std::remove_reference_t<decltype(v)>(); };
  release(dealer_polys_);
  row_vals_.reset();
  release(echo_from_);
  release(lsets_);
  release(monitor_vals_);
  release(recon_vals_);
  release(recon_seen_);
  release(kvals_);
  release(fbar_);
}

}  // namespace svss

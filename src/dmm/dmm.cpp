#include "dmm/dmm.hpp"

#include <algorithm>

namespace svss {

Dmm::Dmm(int n, Hooks hooks)
    : n_(n), hooks_(std::move(hooks)) {}

Dmm::Session* Dmm::find(const SessionId& sid) const {
  const std::unique_ptr<Session>* slot = sessions_.find(sid);
  return slot == nullptr ? nullptr : slot->get();
}

Dmm::Session& Dmm::intern(const SessionId& sid) {
  std::unique_ptr<Session>& slot = sessions_[sid];
  if (!slot) {
    slot = std::make_unique<Session>();
    slot->sid = sid;
  }
  return *slot;
}

bool Dmm::filter(int from, const Message& m, bool via_rb, const Session* s) {
  if (discard_applies(from, s)) return false;  // rule 4: discard
  if (is_blocked(from, s)) {                   // rule 5: delay
    peers_[at(from)].delayed.push_back(Delayed{from, via_rb, m});
    return false;
  }
  return true;
}

bool Dmm::discard_applies(int j, const Session* s) const {
  if (!tracked(j)) return false;
  // The anchor precedes s iff it completed, is not s itself, and s began
  // after that completion (or has not begun locally).
  const Session* a = peers_[at(j)].anchor;
  return a != nullptr && a != s && a->done != 0 &&
         (s == nullptr || a->done <= s->birth);
}

bool Dmm::is_blocked(int from, const Session* s) const {
  // Equivalent to: exists an open expectation about `from` in a session s'
  // with s' ->_i s.  Only completed sessions can precede anything, and
  // s' ->_i s iff completion_order(s') <= birth(s) (an unborn session has
  // birth kUnborn), so the existential collapses to a minimum comparison.
  if (!tracked(from)) return false;
  const auto& orders = peers_[at(from)].blocking_orders;
  return !orders.empty() && (s == nullptr || *orders.begin() <= s->birth);
}

Dmm::Session& Dmm::note_begin(const SessionId& sid) {
  Session& s = intern(sid);
  if (s.birth == Session::kUnborn) s.birth = completions_;
  return s;
}

void Dmm::note_complete(Session& s) {
  if (s.done != 0) return;
  s.done = ++completions_;
  s.seen = decltype(s.seen)();  // frees the table; `= {}` would keep it
  // Sessions completing with expectations still open become blocking.
  for (std::size_t sender = 0; sender < s.open.size(); ++sender) {
    if (s.open[sender] > 0) peers_[sender].blocking_orders.insert(s.done);
  }
  release_if_resolved(s);
}

void Dmm::release_if_resolved(Session& s) {
  if (s.done != 0 &&
      std::none_of(s.open.begin(), s.open.end(), [](int c) { return c > 0; })) {
    s.open = decltype(s.open)();
    s.ack = decltype(s.ack)();
    s.deal = decltype(s.deal)();
  }
}

void Dmm::note_expectation(int sender, Session& s) {
  if (s.open.empty()) s.open.assign(at(n_), 0);
  ++s.open[at(sender)];
  if (peers_.empty()) peers_.resize(at(n_));
  ++peers_[at(sender)].open;
}

void Dmm::drop_expectation(Context& ctx, int sender, Session& s) {
  auto j = at(sender);
  if (j >= s.open.size() || s.open[j] == 0) return;
  --peers_[j].open;
  if (--s.open[j] == 0 && s.done != 0) {
    // The session completed while this expectation was open, so its order
    // is in the blocking index; retract it.
    auto& orders = peers_[j].blocking_orders;
    if (auto it = orders.find(s.done); it != orders.end()) orders.erase(it);
    release_if_resolved(s);
  }
  flush_delayed(ctx, sender);
}

void Dmm::add_ack_entry(Context& ctx, int sender, int poly, Session& s,
                        Fp x) {
  if (!valid(sender) || !valid(poly)) return;
  const std::size_t k = cell(sender, poly);
  if (k < s.seen.size() && s.seen[k]) {
    // The broadcast already happened: resolve or detect immediately.
    if (*s.seen[k] != x) add_to_d(ctx, sender, s);
    return;
  }
  if (s.ack.empty()) s.ack.resize(cell(n_, 0));
  if (s.ack[k]) return;
  s.ack[k] = x;
  note_expectation(sender, s);
}

void Dmm::add_deal_entry(Context& ctx, int sender, Session& s, Fp x) {
  if (!valid(sender)) return;
  const std::size_t k = cell(sender, ctx.self());
  if (k < s.seen.size() && s.seen[k]) {
    if (*s.seen[k] != x) add_to_d(ctx, sender, s);
    return;
  }
  if (s.deal.empty()) s.deal.resize(at(n_));
  auto& entry = s.deal[at(sender)];
  if (entry) return;
  entry = x;
  note_expectation(sender, s);
}

void Dmm::clear_deal_entries(Context& ctx, Session& s) {
  // Ascending sender order.  A drop may redeliver messages or free the
  // table (hence the size re-check); no DEAL entry of s is added meanwhile.
  for (std::size_t j = 0; j < s.deal.size(); ++j) {
    if (!s.deal[j]) continue;
    s.deal[j].reset();
    drop_expectation(ctx, static_cast<int>(j), s);
  }
}

bool Dmm::on_recon_value(Context& ctx, int origin, Session& s, int poly,
                         Fp x) {
  if (!valid(origin) || !valid(poly)) return true;
  const std::size_t k = cell(origin, poly);
  // Record the broadcast so expectations registered later can still be
  // matched (RB delivers each broadcast exactly once).  Skip sessions that
  // already completed locally — no expectations are added past completion.
  if (s.done == 0) {
    if (s.seen.empty()) s.seen.resize(cell(n_, 0));
    if (!s.seen[k]) s.seen[k] = x;
  }
  // Rule 2: ACK expectations (this process dealt session `s`).
  if (k < s.ack.size() && s.ack[k]) {
    if (*s.ack[k] != x) {
      add_to_d(ctx, origin, s);
      return false;
    }
    s.ack[k].reset();
    drop_expectation(ctx, origin, s);
  }
  // Rule 3: DEAL expectations (this process monitors f_self in `s`).
  auto j = at(origin);
  if (poly == ctx.self() && j < s.deal.size() && s.deal[j]) {
    if (*s.deal[j] != x) {
      add_to_d(ctx, origin, s);
      return false;
    }
    s.deal[j].reset();
    drop_expectation(ctx, origin, s);
  }
  return true;
}

void Dmm::add_to_d(Context& ctx, int j, const Session& where) {
  if (!d_.insert(j).second) return;
  if (peers_.empty()) peers_.resize(at(n_));
  peers_[at(j)].anchor = &where;
  ctx.log().record(
      Event{EventKind::kShun, ctx.self(), j, where.sid, 0, false});
  if (hooks_.on_shun) hooks_.on_shun(ctx, j, where.sid);
  // Buffered messages of now-discardable sessions are dropped by the next
  // flush; messages of concurrent sessions may still be released.
  flush_delayed(ctx, j);
}

void Dmm::flush_delayed(Context& ctx, int sender) {
  auto& buffered = peers_[at(sender)].delayed;
  // Re-test each buffered message in place: kept ones slide to the front,
  // releasable ones move out and are re-injected through the owner's
  // routing afterwards (which may re-enter this Dmm and append).
  std::vector<Delayed> release;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < buffered.size(); ++i) {
    const Session* s = find(buffered[i].msg.sid);
    if (discard_applies(sender, s)) continue;  // rule 4: drop
    if (!is_blocked(sender, s)) {
      release.push_back(std::move(buffered[i]));
    } else {
      if (kept != i) buffered[kept] = std::move(buffered[i]);
      ++kept;
    }
  }
  buffered.erase(buffered.begin() + static_cast<std::ptrdiff_t>(kept),
                 buffered.end());
  for (auto& d : release) {
    hooks_.redeliver(ctx, d.from, d.msg, d.via_rb);
  }
}

std::size_t Dmm::pending_expectations(int sender) const {
  return tracked(sender) ? peers_[at(sender)].open : 0;
}

std::size_t Dmm::buffered_messages() const {
  std::size_t total = 0;
  for (const Peer& p : peers_) total += p.delayed.size();
  return total;
}

}  // namespace svss

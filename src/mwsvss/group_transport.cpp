#include "mwsvss/group_transport.hpp"

#include <algorithm>
#include <bitset>

namespace svss {

namespace {

// Wire layout notes (see README "Cascade coalescer"):
//  kMwBatchDirect    ints = (type, j, len) triples; vals = concatenation.
//  kMwBatchAck/Ok    ints = attachee list.
//  kMwBatchLset/Mset ints = (j, len, members...) runs.
//  kMwBatchReconVal  ints = (j, l) pairs; vals = one value per pair.
// All envelopes: sid = group sid (variant 2|3), blob empty, b unused;
// RB envelopes use `a` as the per-(group, type) flush sequence.

bool valid_attachee(const SessionId& sid, int n) {
  return static_cast<int>(sid.counter % kMaxN) < n;
}

}  // namespace

MwGroupTransport::MwGroupTransport(int n) : n_(n) {}

bool MwGroupTransport::is_batchable_broadcast(MsgType type) {
  switch (type) {
    case MsgType::kMwAck:
    case MsgType::kMwLset:
    case MsgType::kMwMset:
    case MsgType::kMwOk:
    case MsgType::kMwReconVal:
      return true;
    default:
      return false;
  }
}

bool MwGroupTransport::is_batchable_direct(MsgType type) {
  switch (type) {
    case MsgType::kMwDealerShares:
    case MsgType::kMwDealerPoly:
    case MsgType::kMwDealerWhole:
    case MsgType::kMwEchoVal:
    case MsgType::kMwMonitorVal:
      return true;
    default:
      return false;
  }
}

SessionId MwGroupTransport::group_sid(const SessionId& child) {
  SessionId g = child;
  g.variant = static_cast<std::uint8_t>(2 + child.variant);
  g.counter = (child.counter / kMaxN) * kMaxN;
  return g;
}

SessionId MwGroupTransport::child_sid(const SessionId& group, int j) {
  SessionId c = group;
  c.variant = static_cast<std::uint8_t>(group.variant - 2);
  c.counter = group.counter + static_cast<std::uint32_t>(j);
  return c;
}

int MwGroupTransport::rb_slot(MsgType type) {
  switch (type) {
    case MsgType::kMwAck: return kAck;
    case MsgType::kMwLset: return kLset;
    case MsgType::kMwMset: return kMset;
    case MsgType::kMwOk: return kOk;
    case MsgType::kMwReconVal: return kRecon;
    default: return -1;
  }
}

// ---------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------
MwGroupTransport::PendingGroup& MwGroupTransport::group_for(
    const SessionId& child) {
  SessionId gsid = group_sid(child);
  std::uint32_t& handle = groups_[gsid];
  if (handle == 0) {  // first capture in this group
    flush_seq_.emplace_back();
    pending_index_.push_back(0);
    handle = static_cast<std::uint32_t>(flush_seq_.size());
  }
  std::uint32_t& index = pending_index_[handle - 1];
  if (index == 0) {
    pending_.emplace_back().gsid = gsid;
    pending_.back().handle = handle;
    index = static_cast<std::uint32_t>(pending_.size());
  }
  return pending_[index - 1];
}

bool MwGroupTransport::capture_broadcast(const Message& m) {
  if (m.sid.path != SessionPath::kMwInSvssCoin || m.sid.variant > 1 ||
      !is_batchable_broadcast(m.type) || !valid_attachee(m.sid, n_)) {
    return false;
  }
  // Only single-value recon broadcasts have the shape the envelope
  // re-frames; check before a group is opened for the message.
  if (m.type == MsgType::kMwReconVal && m.vals.size() != 1) return false;
  PendingGroup& g = group_for(m.sid);
  int j = static_cast<int>(m.sid.counter % kMaxN);
  switch (m.type) {
    case MsgType::kMwAck:
      g.acks.push_back(j);
      break;
    case MsgType::kMwOk:
      g.oks.push_back(j);
      break;
    case MsgType::kMwLset:
      g.lsets.emplace_back(j, m.ints);
      break;
    case MsgType::kMwMset:
      g.msets.emplace_back(j, m.ints);
      break;
    case MsgType::kMwReconVal:
      g.recons.push_back(PendingGroup::Recon{j, m.a, m.vals[0]});
      break;
    default:
      return false;
  }
  return true;
}

bool MwGroupTransport::capture_direct(int to, const Message& m) {
  if (m.sid.path != SessionPath::kMwInSvssCoin ||
      m.sid.variant > 1 || !is_batchable_direct(m.type) ||
      !valid_attachee(m.sid, n_) || to < 0 || to >= n_) {
    return false;
  }
  PendingGroup& g = group_for(m.sid);
  if (g.direct_ints.empty()) {
    g.direct_ints.resize(static_cast<std::size_t>(n_));
    g.direct_vals.resize(static_cast<std::size_t>(n_));
  }
  auto slot = static_cast<std::size_t>(to);
  g.direct_ints[slot].push_back(static_cast<int>(m.type));
  g.direct_ints[slot].push_back(static_cast<int>(m.sid.counter % kMaxN));
  g.direct_ints[slot].push_back(static_cast<int>(m.vals.size()));
  g.direct_vals[slot].insert(g.direct_vals[slot].end(), m.vals.begin(),
                             m.vals.end());
  return true;
}

void MwGroupTransport::flush(EnvelopeEmit emit) {
  for (PendingGroup& g : pending_) {
    // Direct envelopes first (recipients ascending), then the RB types in
    // fixed order — a deterministic emission schedule is part of the
    // engine's replay guarantee.
    for (int to = 0; to < static_cast<int>(g.direct_ints.size()); ++to) {
      auto slot = static_cast<std::size_t>(to);
      if (g.direct_ints[slot].empty()) continue;
      Message m;
      m.sid = g.gsid;
      m.type = MsgType::kMwBatchDirect;
      m.ints = std::move(g.direct_ints[slot]);
      m.vals = std::move(g.direct_vals[slot]);
      emit(to, std::move(m));
    }
    auto& seq = flush_seq_[g.handle - 1];
    pending_index_[g.handle - 1] = 0;
    auto flush_rb = [&](MsgType type, RbSlot slot, Message&& m) {
      m.sid = g.gsid;
      m.type = type;
      m.a = seq[slot]++;
      emit(kBroadcastEnvelope, std::move(m));
    };
    // Attachee-list envelopes (ack, OK): ints is the attachee list.
    auto flush_list = [&](MsgType type, RbSlot slot,
                          std::vector<int>&& attachees) {
      if (attachees.empty()) return;
      Message m;
      m.ints = std::move(attachees);
      flush_rb(type, slot, std::move(m));
    };
    // Run envelopes (L-set, M-set): ints is (j, len, members...) runs —
    // the one encoding unpack's shared parser understands for both types.
    auto flush_runs =
        [&](MsgType type, RbSlot slot,
            std::vector<std::pair<int, std::vector<int>>>& runs) {
          if (runs.empty()) return;
          Message m;
          for (auto& [j, members] : runs) {
            m.ints.push_back(j);
            m.ints.push_back(static_cast<int>(members.size()));
            m.ints.insert(m.ints.end(), members.begin(), members.end());
          }
          flush_rb(type, slot, std::move(m));
        };
    flush_list(MsgType::kMwBatchAck, kAck, std::move(g.acks));
    flush_runs(MsgType::kMwBatchLset, kLset, g.lsets);
    flush_runs(MsgType::kMwBatchMset, kMset, g.msets);
    flush_list(MsgType::kMwBatchOk, kOk, std::move(g.oks));
    if (!g.recons.empty()) {
      Message m;
      m.vals.reserve(g.recons.size());
      for (const PendingGroup::Recon& r : g.recons) {
        m.ints.push_back(r.j);
        m.ints.push_back(r.l);
        m.vals.push_back(r.x);
      }
      flush_rb(MsgType::kMwBatchReconVal, kRecon, std::move(m));
    }
  }
  pending_.clear();
}

// ---------------------------------------------------------------------
// Fault-injection views
// ---------------------------------------------------------------------
void MwGroupTransport::for_each_direct_entry(
    const Message& m, FunctionRef<void(MsgType, int, std::size_t, int)> fn) {
  if (m.type != MsgType::kMwBatchDirect) return;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i + 2 < m.ints.size(); i += 3) {
    int len = m.ints[i + 2];
    fn(static_cast<MsgType>(m.ints[i]), m.ints[i + 1], cursor, len);
    if (len > 0) cursor += static_cast<std::size_t>(len);
  }
}

int* MwGroupTransport::first_run_member(Message& m) {
  if ((m.type != MsgType::kMwBatchLset && m.type != MsgType::kMwBatchMset) ||
      m.ints.size() < 3 || m.ints[1] < 1) {
    return nullptr;
  }
  return &m.ints[2];
}

// ---------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------
void MwGroupTransport::unpack(Context& ctx, int n, int sender,
                              const Message& m, bool via_rb,
                              UnpackSink sink) {
  // Envelope sid shape: a coin-nested group (variant 2|3) anchored at the
  // attachee-0 counter slot.  Role pids were vetted by the caller's
  // sane_sid; the sub-sessions re-enter full per-session validation.
  if (m.sid.path != SessionPath::kMwInSvssCoin || m.sid.variant < 2 ||
      m.sid.variant > 3 || m.sid.counter % kMaxN != 0 || !m.blob.empty()) {
    return;
  }
  const bool is_direct = m.type == MsgType::kMwBatchDirect;
  if (is_direct == via_rb) return;  // wrong transport class for the type

  // Parse the whole envelope before dispatching: a malformed batch is
  // dropped in its entirety, mirroring RBC's treatment of garbage.  Each
  // parsed sub-message is a view: type, attachee, `a`, and the run
  // [at, at + len) of vals (of ints for L/M sets) it carries.
  struct Sub {
    MsgType type;
    int j, a;
    std::size_t at, len;
  };
  std::vector<Sub> subs;
  subs.reserve(m.ints.size());  // every sub-message spends >= 1 int
  // One delivery per (sub-type, attachee) within an envelope; duplicate
  // entries are the Byzantine shape that could double-drive a session.
  // (A bitset, not bool arrays: unpack runs per delivered envelope, so
  // its dedup state must be cheap to zero.)
  std::bitset<6 * kMaxN> seen;
  auto claim = [&](MsgType type, int j) {
    std::size_t row;
    switch (type) {
      case MsgType::kMwDealerShares: row = 0; break;
      case MsgType::kMwDealerPoly: row = 1; break;
      case MsgType::kMwDealerWhole: row = 2; break;
      case MsgType::kMwEchoVal: row = 3; break;
      case MsgType::kMwMonitorVal: row = 4; break;
      default: row = 5; break;  // the RB envelopes carry one type each
    }
    std::size_t bit = row * kMaxN + static_cast<std::size_t>(j);
    if (seen[bit]) return false;
    seen[bit] = true;
    return true;
  };
  auto valid_j = [&](int j) { return j >= 0 && j < n; };

  switch (m.type) {
    case MsgType::kMwBatchDirect: {
      if (m.ints.size() % 3 != 0) return;
      std::size_t cursor = 0;
      for (std::size_t i = 0; i < m.ints.size(); i += 3) {
        auto type = static_cast<MsgType>(m.ints[i]);
        int j = m.ints[i + 1];
        int len = m.ints[i + 2];
        if (!is_batchable_direct(type) || !valid_j(j) || len < 0 ||
            cursor + static_cast<std::size_t>(len) > m.vals.size() ||
            !claim(type, j)) {
          return;
        }
        auto run = static_cast<std::size_t>(len);
        subs.push_back(Sub{type, j, -1, cursor, run});
        cursor += run;
      }
      if (cursor != m.vals.size()) return;
      break;
    }
    case MsgType::kMwBatchAck:
    case MsgType::kMwBatchOk: {
      if (!m.vals.empty()) return;
      MsgType sub_type = m.type == MsgType::kMwBatchAck ? MsgType::kMwAck
                                                        : MsgType::kMwOk;
      for (int j : m.ints) {
        if (!valid_j(j) || !claim(sub_type, j)) return;
        subs.push_back(Sub{sub_type, j, -1, 0, 0});
      }
      break;
    }
    case MsgType::kMwBatchLset:
    case MsgType::kMwBatchMset: {
      if (!m.vals.empty()) return;
      MsgType sub_type = m.type == MsgType::kMwBatchLset ? MsgType::kMwLset
                                                         : MsgType::kMwMset;
      std::size_t i = 0;
      while (i < m.ints.size()) {
        if (i + 2 > m.ints.size()) return;
        int j = m.ints[i];
        int len = m.ints[i + 1];
        if (!valid_j(j) || len < 0 ||
            i + 2 + static_cast<std::size_t>(len) > m.ints.size() ||
            !claim(sub_type, j)) {
          return;
        }
        auto run = static_cast<std::size_t>(len);
        subs.push_back(Sub{sub_type, j, -1, i + 2, run});
        i += 2 + run;
      }
      break;
    }
    case MsgType::kMwBatchReconVal: {
      if (m.ints.size() % 2 != 0 || m.vals.size() * 2 != m.ints.size()) {
        return;
      }
      // Duplicate (j, l) pairs within one envelope are rejected here; a
      // duplicate across two flushes of a Byzantine sender is caught by
      // the session's per-(origin, l) guard, which restores the uniqueness
      // the per-session RBC instance id used to enforce structurally.
      std::bitset<kMaxN * kMaxN> recon_seen;
      for (std::size_t i = 0; i < m.vals.size(); ++i) {
        int j = m.ints[2 * i];
        int l = m.ints[2 * i + 1];
        if (!valid_j(j) || l < 0 || l >= n) return;
        std::size_t bit = static_cast<std::size_t>(j) * kMaxN +
                          static_cast<std::size_t>(l);
        if (recon_seen[bit]) return;
        recon_seen[bit] = true;
        subs.push_back(Sub{MsgType::kMwReconVal, j, l, i, 1});
      }
      break;
    }
    default:
      return;
  }

  // One Message is refilled per sub-message: the sink copies whatever it
  // keeps, so reusing its buffers saves an allocation per sub-message.
  Message sub;
  for (const Sub& s : subs) {
    sub.sid = child_sid(m.sid, s.j);
    sub.type = s.type;
    sub.a = static_cast<std::int16_t>(s.a);
    const auto at = static_cast<std::ptrdiff_t>(s.at);
    const auto end = at + static_cast<std::ptrdiff_t>(s.len);
    if (s.type == MsgType::kMwLset || s.type == MsgType::kMwMset) {
      sub.ints.assign(m.ints.begin() + at, m.ints.begin() + end);
    } else {
      sub.vals.assign(m.vals.begin() + at, m.vals.begin() + end);
    }
    sink(ctx, sender, sub, via_rb);
  }
}

}  // namespace svss

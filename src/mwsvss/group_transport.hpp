// Group-coalesced MW-SVSS transport.
//
// Every coin round nests n sibling MW-SVSS children — one per attachee j —
// under each (round, svss_dealer, child_dealer, moderator, variant) group:
// the siblings share every role assignment and differ only in the attachee
// slot of their session counter.  Dealt individually, their share/recon
// traffic is one RBC instance (Theta(n^2) transport packets) per ack,
// L-set, M-set, OK, and recon-value broadcast per session, plus one wire
// message per direct send — ~97% of all full-stack packets at n >= 7.
//
// This layer coalesces that traffic the way the coin batcher coalesces
// dealing (src/coin/batched_transport.hpp): the node's cascade coalescer
// (core/coalescer.hpp) hands it the per-session messages captured during
// one delivery cascade, and it packs them at cascade close as
//
//  * kMwBatchDirect (direct): all captured kMwDealerShares / kMwDealerPoly
//    / kMwDealerWhole / kMwEchoVal / kMwMonitorVal messages of one
//    (group, recipient) pair, concatenated.  One envelope replaces up to
//    2n+2 per-session messages (a dealer's full sibling fan-out).
//  * kMwBatchAck/Lset/Mset/Ok/ReconVal (RB): the captured same-type
//    broadcasts of one group, in one RBC instance per (group, sender,
//    type, flush).  Because the sibling sessions advance in lockstep once
//    their inputs arrive group-batched, a cascade typically carries all n
//    siblings' broadcasts, so one shared set of echo/ready rounds replaces
//    n.  Flushing happens in the same delivery that produced the messages
//    — nothing is ever withheld across deliveries — so liveness and the
//    DMM shunning discipline (which may *expect* a recon broadcast from an
//    honest process) are untouched by construction: this is framing, never
//    scheduling policy.
//
// Receivers unpack an envelope into its per-session messages and feed each
// through the normal per-session routing (DMM filter and recon-expectation
// rules included), so every correctness property keeps quantifying over
// individual MwSvssSessions and batched/unbatched processes interoperate
// in one run.  Envelope sids reuse the child id space with variant 2 | 3
// (encoding the group's variant 0 | 1) and the attachee-0 counter slot;
// field values ride in Message::vals so value-corrupting Byzantine
// interceptors act on batched traffic exactly as on per-session framing.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

class MwGroupTransport {
 public:
  explicit MwGroupTransport(int n);

  // True for envelope types this layer owns (MsgType 11-16).
  static bool is_batch_type(MsgType type) {
    return type >= MsgType::kMwBatchDirect &&
           type <= MsgType::kMwBatchReconVal;
  }
  // True for per-session types the layer captures (RB / direct class).
  static bool is_batchable_broadcast(MsgType type);
  static bool is_batchable_direct(MsgType type);
  // The envelope sid of the group a coin-nested child session belongs to:
  // same roles, variant 2 + v, counter rounded down to the attachee-0 slot.
  static SessionId group_sid(const SessionId& child);
  // The child sid of attachee `j` under an envelope sid.
  static SessionId child_sid(const SessionId& group, int j);

  // --- sender side -------------------------------------------------
  // Collects one per-session message; returns false (caller sends
  // normally) for foreign sessions or non-batchable types.  Only
  // kMwInSvssCoin children with a valid attachee are grouped.
  bool capture_broadcast(const Message& m);
  bool capture_direct(int to, const Message& m);
  // Packs the captured envelopes (groups in capture order, recipients
  // ascending, RB types in fixed order) and hands each to `emit`.
  void flush(EnvelopeEmit emit);

  // --- fault-injection views ---------------------------------------
  // Wire-layout accessors for Byzantine interceptors, so layout knowledge
  // never leaves this file: a layout change that broke these would break
  // pack/unpack alongside, keeping adversary tests non-vacuous.
  // Calls fn(sub_type, attachee, val_offset, val_count) for every
  // well-formed (type, j, len) triple of a kMwBatchDirect envelope.
  static void for_each_direct_entry(
      const Message& m, FunctionRef<void(MsgType, int, std::size_t, int)> fn);
  // The first member of the first (j, len, members...) run of a
  // kMwBatchLset/kMwBatchMset envelope, or nullptr.
  static int* first_run_member(Message& m);

  // --- receiver side -----------------------------------------------
  // Splits an envelope into its per-session messages and hands each to
  // `sink`.  A malformed envelope — bad sid shape, wrong transport class,
  // truncated or inconsistent runs, duplicate sub-sessions, out-of-range
  // attachee or pid — is dropped whole, mirroring RBC's treatment of
  // garbage; the sub-messages then re-enter the exact validation the
  // unbatched path applies.
  static void unpack(Context& ctx, int n, int sender, const Message& m,
                     bool via_rb, UnpackSink sink);

 private:
  // Index into PendingGroup's per-RB-type arrays and flush counters.
  enum RbSlot { kAck = 0, kLset, kMset, kOk, kRecon, kRbSlots };
  static int rb_slot(MsgType type);

  struct PendingGroup {
    SessionId gsid;  // envelope sid (variant 2 | 3)
    std::uint32_t handle = 0;  // gsid's interned group handle (1-based)
    std::vector<int> acks;  // attachees, capture order
    std::vector<int> oks;
    std::vector<std::pair<int, std::vector<int>>> lsets;  // (j, members)
    std::vector<std::pair<int, std::vector<int>>> msets;
    struct Recon {
      int j;
      int l;
      Fp x;
    };
    std::vector<Recon> recons;
    // Direct sub-messages per recipient: (type, j, len) triples + values.
    std::vector<std::vector<int>> direct_ints;
    std::vector<FieldVec> direct_vals;
  };

  PendingGroup& group_for(const SessionId& child);

  int n_;

  std::vector<PendingGroup> pending_;  // capture order (determinism)
  // Group sid -> dense 1-based handle, interned at the group's first
  // capture.  Indexed by handle - 1: 1 + the group's index in pending_ (0
  // while it has no captures awaiting flush), and flush_seq_ below.
  FlatMap<SessionId, std::uint32_t, SessionIdHash> groups_;
  std::vector<std::uint32_t> pending_index_;
  // Per (group, RB type) flush sequence, persisted across cascades: each
  // flush is its own RBC instance (BcastId.a), so a straggler flush never
  // collides with — or equivocates against — an earlier one.  Entries are
  // deliberately never evicted: in the async model there is no local
  // horizon after which a group provably stops flushing, and a pruned
  // group restarting at sequence 0 would reuse an instance id — an honest
  // node equivocating against itself.  Growth is one small array per
  // group *this node captured traffic in*, the same order as the Rbc
  // layer's own per-instance state.
  std::vector<std::array<std::int16_t, kRbSlots>> flush_seq_;
};

}  // namespace svss

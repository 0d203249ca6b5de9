// Cross-instance ABA vote batching.
//
// Once agreement rides a multiplexed session space (SessionId::instance),
// a node running k concurrent instances emits k independent EST/AUX/DECIDE
// fan-outs — and k CONF reliable broadcasts — per delivery cascade.  At
// n = 64 under the ideal coin, essentially every wire byte is an
// `aba-vote`; per-instance framing pays the fixed per-packet cost k times
// for votes that leave the same node in the same cascade.
//
// This layer coalesces that traffic the way the coin batcher coalesces
// dealing and the group transport coalesces MW children: the node's cascade
// coalescer (core/coalescer.hpp) hands it the per-session votes captured
// during one delivery cascade, and it packs them at cascade close as
//
//  * kAbaBatchVote (direct): all captured EST/AUX/DECIDE votes bound for
//    one recipient, concatenated as flat (instance, round, subtype, value)
//    runs.  One envelope replaces up to k * rounds per-session messages.
//  * kAbaBatchConf (RB): the captured CONF broadcasts of the cascade, as
//    flat (instance, round, setcode) runs in one RBC instance per flush.
//    The shared echo/ready rounds replace one RBC instance per (instance,
//    round) CONF.
//
// Flushing happens in the same delivery that produced the votes — nothing
// is ever withheld across deliveries — so this is framing, never
// scheduling policy.  A cascade that captured exactly one vote for a
// recipient (or one CONF) re-emits the original per-session message: the
// envelope framing only kicks in when there is something to share.
//
// Receivers unpack an envelope into its per-session kAbaVote messages and
// feed each through the normal per-instance routing, so every correctness
// property keeps quantifying over individual AbaSessions (which re-apply
// full vote validation) and batched/unbatched processes interoperate in
// one run.  Envelope sids live in the kAba variant-4 space with
// instance 0; CONF envelopes consume a per-node flush sequence in the
// counter slot so each flush is its own RBC instance.  Byzantine caveat
// (mirroring the MW group transport): a faulty node can spread
// conflicting CONF sets for one (instance, round) across distinct flush
// envelopes, so batched CONF degrades from reliable-broadcast to
// plain-broadcast equivocation semantics — agreement safety never rests
// on CONF non-equivocation (the tier rule tolerates arbitrary CONF sets
// from t faulty processes), so this widens no attack surface.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

class AbaVoteBatcher {
 public:
  explicit AbaVoteBatcher(int n);

  // True for envelope types this layer owns.
  static bool is_batch_type(MsgType type) {
    return type == MsgType::kAbaBatchVote || type == MsgType::kAbaBatchConf;
  }

  // --- sender side -------------------------------------------------
  // Collects one per-session vote; returns false (caller sends normally)
  // for anything but a well-formed kAbaVote in the variant-0 agreement
  // space.
  bool capture_broadcast(const Message& m);
  bool capture_direct(int to, const Message& m);
  // Packs the captured votes (recipients ascending, CONF last) and hands
  // each envelope to `emit`.  Single-vote recipients get the original
  // per-session message instead of an envelope.
  void flush(EnvelopeEmit emit);

  // --- receiver side -----------------------------------------------
  // Splits an envelope into its per-session kAbaVote messages and hands
  // each to `sink`.  A malformed envelope — wrong transport class, bad sid
  // shape, ragged runs, out-of-range rounds or subtypes — is dropped
  // whole, mirroring RBC's treatment of garbage; the sub-messages then
  // re-enter the exact validation AbaSession applies to unbatched votes.
  static void unpack(Context& ctx, int sender, const Message& m, bool via_rb,
                     UnpackSink sink);

 private:
  // One captured direct vote: the flat-run fields, which also rebuild the
  // original message for the single-vote fallback.
  struct PendingVote {
    std::uint32_t instance;
    std::uint32_t round;
    int subtype;
    int value;
  };
  struct PendingConf {
    std::uint32_t instance;
    std::uint32_t round;
    int setcode;
  };

  int n_;
  std::vector<std::vector<PendingVote>> direct_;  // per recipient
  std::vector<PendingConf> confs_;                // capture order
  // Per-flush RBC instance counter for CONF envelopes, persisted across
  // cascades: each flush is its own RBC instance (sid.counter), so a
  // straggler flush never collides with an earlier one.  Monotone and
  // never reset — a reused counter would make an honest node equivocate
  // against itself.
  std::uint32_t flush_seq_ = 0;
};

}  // namespace svss

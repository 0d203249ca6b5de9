// Batched coin-round SVSS transport.
//
// Every coin round attaches n SVSS sessions to each process: dealer d
// shares one secret per attachee j under session id (round, d, j).  Dealt
// individually, that is n direct share messages per recipient and n G-set
// RB instances per dealer per round — and that dealing cost dominates the
// wall-clock of every full-stack agreement run.  This transport multiplexes
// the n sibling sessions of one (round, dealer) pair over shared wire
// envelopes while keeping the per-session SvssSession interface intact:
//
//  * kSvssBatchShares (direct): the dealer's n per-session
//    kSvssDealerShares messages to one recipient, concatenated in attachee
//    order.  CoinSession::start brackets its dealing loop with the
//    CoinHost::svss_batch_window hook; the sessions still run their
//    unmodified deal() code, and the node's cascade coalescer
//    (core/coalescer.hpp) hands this layer what they send meanwhile and
//    flushes it when the loop ends.  One message per recipient replaces n.
//  * kSvssBatchGset (RB): the n per-session kSvssGset broadcasts of one
//    dealer, concatenated once the last sibling produced its set.  One RBC
//    instance — one shared set of echo/ready rounds — replaces n.  This is
//    liveness-neutral: the coin counts dealer d only when all n of d's
//    sessions completed, so no consumer can act before the slowest sibling
//    anyway, and an honest dealer always eventually has all n sets.
//
// Receivers unpack an envelope into its per-session messages and feed them
// through the normal per-session routing (DMM filter included), so every
// correctness property keeps quantifying over individual SvssSessions, and
// batched and unbatched processes interoperate in one run.  Wire values are
// bit-identical to the unbatched path: capturing changes framing, never
// content or RNG consumption order (tests/batch_equivalence_test).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

class BatchedSvssTransport {
 public:
  BatchedSvssTransport(int self, int n);

  // Session id carried by both envelope types of (instance, round, dealer):
  // the attachee-0 slot with variant 1 marking "batch envelope".
  static SessionId batch_sid(std::uint32_t round, int dealer,
                             std::uint32_t instance = 0);
  // True for message types this layer owns.
  static bool is_batch_type(MsgType type) {
    return type == MsgType::kSvssBatchShares ||
           type == MsgType::kSvssBatchGset;
  }

  // --- dealer side -------------------------------------------------
  // Starts collecting the dealing of this node's (instance, round).
  void begin_dealing(std::uint32_t instance, std::uint32_t round);
  // Collects one per-session dealer-shares message of that dealing;
  // returns false (caller sends normally) for any other message.
  bool capture_dealer_shares(int to, const Message& m);
  // Packs one kSvssBatchShares direct envelope per recipient and hands
  // each to `emit`.
  void flush_dealing(EnvelopeEmit emit);

  // Collects one sibling session's kSvssGset payload; once all n are in,
  // returns the combined kSvssBatchGset broadcast for the caller to RB.
  std::optional<Message> capture_gset(const Message& m);

  // --- receiver side -----------------------------------------------
  // Splits a batch envelope into its per-session messages (attachee order)
  // and hands each to `sink`.  Malformed envelopes are dropped whole; the
  // sub-messages re-enter the exact validation the unbatched path applies.
  static void unpack(Context& ctx, int n, int t, int sender, const Message& m,
                     bool via_rb, UnpackSink sink);

 private:
  int self_;
  int n_;

  std::uint32_t dealing_instance_ = 0;
  std::uint32_t dealing_round_ = 0;
  std::vector<FieldVec> pending_vals_;  // [recipient] concatenated shares
  std::vector<int> pending_count_;      // [recipient] sessions captured

  struct GsetParts {
    int have = 0;
    // [attachee] -> (G, per-member G_j blob) as broadcast by the session.
    std::vector<std::optional<std::pair<std::vector<int>, Bytes>>> parts;
  };
  // Keyed by (instance << 32) | round: concurrent instances accumulate
  // their G-set envelopes independently.
  std::map<std::uint64_t, GsetParts> gset_rounds_;
};

}  // namespace svss

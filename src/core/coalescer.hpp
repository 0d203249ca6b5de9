// core::Coalescer — the one seam between a Node's protocol sessions and the
// batch envelopes their traffic is framed in.
//
// Three layers coalesce per-session traffic into shared envelopes, each
// owning what is specific to it — what it captures, the envelope layout,
// and the validating unpack:
//
//   coin/batched_transport   the n sibling SVSS sessions of a coin dealing
//   mwsvss/group_transport   the n sibling MW-SVSS children of a coin group
//   aba/vote_batch           agreement votes across instances and rounds
//
// The coalescer owns everything about *when* captured traffic leaves the
// node and *where* envelopes go.  One capture window brackets each delivery
// cascade (Node::start, Node::on_packet, Node::start_aba): the votes and MW
// children the sessions send meanwhile are captured, and at cascade close
// the votes flush first (recipients ascending, CONF last), then the MW
// groups in capture order.  No captured vote or MW message outlives its
// cascade, so coalescing is framing, never scheduling policy.
//
// Coin dealing keeps its own, earlier flush point: CoinSession::start
// brackets its dealing loop through the CoinHost::svss_batch_window hook,
// and the shares leave as soon as the loop ends, mid-cascade.  G-sets
// accumulate across cascades until a dealer's last sibling produced its
// set (layer policy, not a window).
//
// Envelopes go out by direct calls to the node's Rbc (RB envelopes) and
// Context::send (direct ones).  Inbound, every envelope type is understood
// regardless of this node's framing, so batched and per-session processes
// interoperate; unpack hands the sub-messages back to the node's routing.
#pragma once

#include <cstdint>

#include "aba/vote_batch.hpp"
#include "coin/batched_transport.hpp"
#include "mwsvss/group_transport.hpp"
#include "rbc/rbc.hpp"

namespace svss {

class Coalescer {
 public:
  // The flags select this node's *own* outbound framing per layer.
  Coalescer(Rbc& rbc, int self, int n, bool batched_coin, bool batched_mw,
            bool batched_votes);

  // Runs one delivery cascade inside the capture window and flushes what
  // it captured.  Nested calls (a cascade that starts an agreement
  // instance) run inside the already-open window.
  template <typename Body>
  void cascade(Context& ctx, Body&& body) {
    if (open_) {
      body();
      return;
    }
    open_ = true;
    body();
    close(ctx);
  }

  // Takes one outbound per-session message if its layer coalesces it;
  // false means the caller sends it per-session.
  bool capture_broadcast(Context& ctx, const Message& m);
  bool capture_direct(int to, const Message& m);

  // The coin dealing bracket (CoinHost::svss_batch_window).
  void begin_dealing(std::uint32_t instance, std::uint32_t round);
  void end_dealing(Context& ctx);

  // True for every batch envelope type.
  static bool is_envelope(MsgType type) {
    return AbaVoteBatcher::is_batch_type(type) ||
           MwGroupTransport::is_batch_type(type) ||
           BatchedSvssTransport::is_batch_type(type);
  }
  // Splits an envelope into its per-session messages and hands each to
  // `sink`, after the owning layer validated the whole envelope.
  static void unpack(Context& ctx, int n, int t, int sender, const Message& m,
                     bool via_rb, UnpackSink sink);

 private:
  void close(Context& ctx);
  void emit(Context& ctx, int to, Message&& envelope);

  Rbc& rbc_;
  int self_;
  bool batched_coin_;
  bool batched_mw_;
  bool batched_votes_;
  bool open_ = false;     // a cascade's capture window
  bool dealing_ = false;  // a coin dealing loop
  bool captured_ = false;  // the open window holds traffic to flush
  BatchedSvssTransport coin_;
  MwGroupTransport mw_;
  AbaVoteBatcher votes_;
};

}  // namespace svss

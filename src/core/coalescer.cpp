#include "core/coalescer.hpp"

namespace svss {

Coalescer::Coalescer(Rbc& rbc, int self, int n, bool batched_coin,
                     bool batched_mw, bool batched_votes)
    : rbc_(rbc),
      self_(self),
      batched_coin_(batched_coin),
      batched_mw_(batched_mw),
      batched_votes_(batched_votes),
      coin_(self, n),
      mw_(n),
      votes_(n) {}

bool Coalescer::capture_broadcast(Context& ctx, const Message& m) {
  if (batched_coin_ && m.type == MsgType::kSvssGset &&
      m.sid.path == SessionPath::kSvssCoin && m.sid.owner == self_) {
    // Batch the n sibling sessions' G-sets into one RBC instance: the
    // shared echo/ready rounds replace n per-session ones.  The combined
    // broadcast goes out when the last sibling produced its set.
    if (auto batched = coin_.capture_gset(m)) rbc_.broadcast(ctx, *batched);
    return true;
  }
  if (!open_) return false;
  const bool captured = (batched_votes_ && votes_.capture_broadcast(m)) ||
                        (batched_mw_ && mw_.capture_broadcast(m));
  captured_ = captured_ || captured;
  return captured;
}

bool Coalescer::capture_direct(int to, const Message& m) {
  if (dealing_ && coin_.capture_dealer_shares(to, m)) return true;
  if (!open_) return false;
  const bool captured = (batched_votes_ && votes_.capture_direct(to, m)) ||
                        (batched_mw_ && mw_.capture_direct(to, m));
  captured_ = captured_ || captured;
  return captured;
}

void Coalescer::begin_dealing(std::uint32_t instance, std::uint32_t round) {
  if (!batched_coin_) return;
  dealing_ = true;
  coin_.begin_dealing(instance, round);
}

// Dealing shares leave as soon as the dealing loop ends, not at cascade
// close: deferring them changes the schedules a run explores (a corpus
// entry's worst case drops from 3 rounds to 2), so this flush point is
// part of the framing's observable behaviour.
void Coalescer::end_dealing(Context& ctx) {
  if (!dealing_) return;
  dealing_ = false;
  coin_.flush_dealing(
      [&](int to, Message&& env) { emit(ctx, to, std::move(env)); });
}

void Coalescer::close(Context& ctx) {
  open_ = false;
  if (!captured_) return;  // the common case: nothing to flush
  captured_ = false;
  auto out = [&](int to, Message&& env) { emit(ctx, to, std::move(env)); };
  votes_.flush(out);
  mw_.flush(out);
}

void Coalescer::emit(Context& ctx, int to, Message&& envelope) {
  if (to == kBroadcastEnvelope) {
    rbc_.broadcast(ctx, envelope);
  } else {
    ctx.send(to, make_direct(std::move(envelope)));
  }
}

void Coalescer::unpack(Context& ctx, int n, int t, int sender,
                       const Message& m, bool via_rb, UnpackSink sink) {
  if (AbaVoteBatcher::is_batch_type(m.type)) {
    AbaVoteBatcher::unpack(ctx, sender, m, via_rb, sink);
  } else if (MwGroupTransport::is_batch_type(m.type)) {
    MwGroupTransport::unpack(ctx, n, sender, m, via_rb, sink);
  } else if (BatchedSvssTransport::is_batch_type(m.type)) {
    BatchedSvssTransport::unpack(ctx, n, t, sender, m, via_rb, sink);
  }
}

}  // namespace svss

// Unit tests: byte writer/reader round trips and malformed-input safety,
// plus the MW group-envelope codec (pack at cascade close, unpack on
// receive) against round trips and adversarially malformed payloads.
#include "common/serialization.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/coalescer.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"

// Counting global operator new: while armed, records the largest single
// allocation, so a test can bound what a decoder allocates for its input.
namespace {
std::atomic<bool> g_track_allocs{false};
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_track_allocs.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
    while (size > seen && !g_largest_alloc.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so call sites never see a new/free pair to warn about.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace svss {
namespace {

TEST(Serialization, ScalarRoundTrip) {
  Writer w;
  w.u8(7);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  w.field(Fp(999));
  Bytes buf = std::move(w).take();

  Reader r(buf);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.field(), Fp(999));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, VectorRoundTrip) {
  Writer w;
  w.field_vec({Fp(1), Fp(2), Fp(3)});
  w.int_vec({-1, 0, 7});
  w.bytes({0xAA, 0xBB});
  Bytes buf = std::move(w).take();

  Reader r(buf);
  EXPECT_EQ(r.field_vec(), (FieldVec{Fp(1), Fp(2), Fp(3)}));
  EXPECT_EQ(r.int_vec(), (std::vector<int>{-1, 0, 7}));
  EXPECT_EQ(r.bytes(), (Bytes{0xAA, 0xBB}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, EmptyVectors) {
  Writer w;
  w.field_vec({});
  w.int_vec({});
  w.bytes({});
  Bytes buf = std::move(w).take();
  Reader r(buf);
  EXPECT_EQ(r.field_vec(), FieldVec{});
  EXPECT_EQ(r.int_vec(), std::vector<int>{});
  EXPECT_EQ(r.bytes(), Bytes{});
}

TEST(Serialization, TruncatedInputReturnsNullopt) {
  Writer w;
  w.u64(12345);
  Bytes buf = std::move(w).take();
  buf.pop_back();
  Reader r(buf);
  EXPECT_FALSE(r.u64().has_value());
}

TEST(Serialization, TruncatedVectorReturnsNullopt) {
  Writer w;
  w.field_vec({Fp(1), Fp(2), Fp(3)});
  Bytes buf = std::move(w).take();
  buf.resize(buf.size() - 2);
  Reader r(buf);
  EXPECT_FALSE(r.field_vec().has_value());
}

TEST(Serialization, LengthBombRejected) {
  // A length prefix claiming 2^31 elements must not allocate or crash.
  Writer w;
  w.u32(0x7FFFFFFF);
  Bytes buf = std::move(w).take();
  Reader r(buf);
  EXPECT_FALSE(r.field_vec().has_value());
  Reader r2(buf);
  EXPECT_FALSE(r2.int_vec().has_value());
  Reader r3(buf);
  EXPECT_FALSE(r3.bytes().has_value());
}

TEST(Serialization, VectorLengthCheckedBeforeAllocating) {
  // A 4-byte prefix claiming 1 << 20 elements (within the default cap)
  // with nothing behind it: both decoders must fail without allocating
  // more than the input.  Reserving the claimed length first would cost
  // 4 MB (int) or 8 MB (Fp) per forged prefix.
  Writer w;
  w.u32(1u << 20);
  Bytes buf = std::move(w).take();
  g_largest_alloc = 0;
  g_track_allocs = true;
  Reader r(buf);
  const bool fields = r.field_vec().has_value();
  Reader r2(buf);
  const bool ints = r2.int_vec().has_value();
  g_track_allocs = false;
  EXPECT_FALSE(fields);
  EXPECT_FALSE(ints);
  EXPECT_LE(g_largest_alloc.load(), buf.size());
}

TEST(Serialization, NonCanonicalFieldValueRejected) {
  Writer w;
  w.u32(0xFFFFFFFF);  // >= modulus
  Bytes buf = std::move(w).take();
  Reader r(buf);
  EXPECT_FALSE(r.field().has_value());
}

TEST(Serialization, EmptyBufferFailsEverything) {
  Bytes empty;
  Reader r(empty);
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.field().has_value());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, SequentialReadsConsumeExactly) {
  Writer w;
  for (int i = 0; i < 10; ++i) w.u32(static_cast<std::uint32_t>(i));
  Bytes buf = std::move(w).take();
  Reader r(buf);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(i));
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.u8().has_value());
}

// ---------------------------------------------------------------------
// MW group-envelope codec (mwsvss/group_transport, driven through
// core::Coalescer): pack at cascade close must round-trip through unpack,
// and a malformed envelope — whatever a Byzantine sender frames — must be
// dropped whole: no crash, no partial delivery, no double delivery.
// ---------------------------------------------------------------------

// A coin-nested MW child session id: round 5, attachee j.
SessionId mw_child(int j, std::uint8_t variant = 0) {
  SessionId sid;
  sid.path = SessionPath::kMwInSvssCoin;
  sid.variant = variant;
  sid.owner = 1;
  sid.moderator = 2;
  sid.svss_dealer = 3;
  sid.counter = 5 * kMaxN + static_cast<std::uint32_t>(j);
  return sid;
}

// Runs the receiver path on one envelope and collects the per-session
// sub-messages it hands to the routing sink.
std::vector<Message> unpack_all(const Message& env, bool via_rb,
                                int n = 4) {
  Engine e(n, 1, 1, std::make_unique<FifoScheduler>());
  Context ctx(e, 0);
  std::vector<Message> out;
  Coalescer::unpack(ctx, n, 1, /*sender=*/2, env, via_rb,
                    [&](Context&, int, const Message& sub, bool) {
                      out.push_back(sub);
                    });
  return out;
}

Message envelope(MsgType type, std::vector<int> ints = {},
                 FieldVec vals = {}) {
  Message m;
  m.sid = MwGroupTransport::group_sid(mw_child(0));
  m.type = type;
  m.ints = std::move(ints);
  m.vals = std::move(vals);
  return m;
}

TEST(MwGroupCodec, GroupAndChildSidsAreInverse) {
  for (int j : {0, 1, 3}) {
    for (std::uint8_t variant : {std::uint8_t{0}, std::uint8_t{1}}) {
      SessionId child = mw_child(j, variant);
      SessionId group = MwGroupTransport::group_sid(child);
      EXPECT_EQ(group.variant, 2 + variant);
      EXPECT_EQ(group.counter % kMaxN, 0u);
      EXPECT_EQ(MwGroupTransport::child_sid(group, j), child);
    }
  }
}

TEST(MwGroupCodec, RoundTripReproducesPerSessionMessages) {
  // Node 1's coalescer runs one cascade; an interceptor on its outbound
  // channel records what leaves: each RB envelope once (its send-phase
  // payload, taken from the copy addressed to process 0) and every direct
  // envelope with its recipient.  Nothing is delivered.
  Engine e(4, 1, 1, std::make_unique<FifoScheduler>());
  std::vector<Message> rb_envs;
  std::vector<std::pair<int, Message>> direct_envs;
  e.set_interceptor(1, [&](int, int to, Packet& p) {
    if (!p.is_rb) {
      direct_envs.emplace_back(to, p.app);
    } else if (to == 0) {
      auto m = Message::deserialize(p.rb_payload());
      EXPECT_TRUE(m.has_value());
      if (m) rb_envs.push_back(std::move(*m));
    }
    return false;
  });
  Rbc rbc([](Context&, int, const Message&) {});
  Coalescer tx(rbc, /*self=*/1, /*n=*/4, /*batched_coin=*/true,
               /*batched_mw=*/true, /*batched_votes=*/true);
  Context ctx(e, 1);

  tx.cascade(ctx, [&] {
    for (int j = 0; j < 4; ++j) {
      Message ack;
      ack.sid = mw_child(j);
      ack.type = MsgType::kMwAck;
      ASSERT_TRUE(tx.capture_broadcast(ctx, ack));
    }
    Message lset;
    lset.sid = mw_child(2);
    lset.type = MsgType::kMwLset;
    lset.ints = {0, 1, 3};
    ASSERT_TRUE(tx.capture_broadcast(ctx, lset));
    Message recon;
    recon.sid = mw_child(1);
    recon.type = MsgType::kMwReconVal;
    recon.a = 3;
    recon.vals = {Fp(77)};
    ASSERT_TRUE(tx.capture_broadcast(ctx, recon));
    Message echo;
    echo.sid = mw_child(0);
    echo.type = MsgType::kMwEchoVal;
    echo.vals = {Fp(5)};
    ASSERT_TRUE(tx.capture_direct(2, echo));
    Message shares;
    shares.sid = mw_child(3);
    shares.type = MsgType::kMwDealerShares;
    shares.vals = {Fp(8), Fp(9), Fp(10), Fp(11)};
    ASSERT_TRUE(tx.capture_direct(2, shares));
    // Captured traffic waits for the cascade to close.
    EXPECT_TRUE(rb_envs.empty());
    EXPECT_TRUE(direct_envs.empty());
  });

  // One direct envelope (both sub-messages went to recipient 2) and one
  // RB envelope per captured type: ack, L-set, recon.
  ASSERT_EQ(direct_envs.size(), 1u);
  EXPECT_EQ(direct_envs[0].first, 2);
  ASSERT_EQ(rb_envs.size(), 3u);
  EXPECT_EQ(rb_envs[0].type, MsgType::kMwBatchAck);
  EXPECT_EQ(rb_envs[1].type, MsgType::kMwBatchLset);
  EXPECT_EQ(rb_envs[2].type, MsgType::kMwBatchReconVal);

  auto acks = unpack_all(rb_envs[0], /*via_rb=*/true);
  ASSERT_EQ(acks.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(acks[static_cast<std::size_t>(j)].sid, mw_child(j));
    EXPECT_EQ(acks[static_cast<std::size_t>(j)].type, MsgType::kMwAck);
  }

  auto lsets = unpack_all(rb_envs[1], /*via_rb=*/true);
  ASSERT_EQ(lsets.size(), 1u);
  EXPECT_EQ(lsets[0].sid, mw_child(2));
  EXPECT_EQ(lsets[0].ints, (std::vector<int>{0, 1, 3}));

  auto recons = unpack_all(rb_envs[2], /*via_rb=*/true);
  ASSERT_EQ(recons.size(), 1u);
  EXPECT_EQ(recons[0].sid, mw_child(1));
  EXPECT_EQ(recons[0].a, 3);
  EXPECT_EQ(recons[0].vals, FieldVec{Fp(77)});

  auto directs = unpack_all(direct_envs[0].second, /*via_rb=*/false);
  ASSERT_EQ(directs.size(), 2u);
  EXPECT_EQ(directs[0].sid, mw_child(0));
  EXPECT_EQ(directs[0].type, MsgType::kMwEchoVal);
  EXPECT_EQ(directs[0].vals, FieldVec{Fp(5)});
  EXPECT_EQ(directs[1].sid, mw_child(3));
  EXPECT_EQ(directs[1].type, MsgType::kMwDealerShares);
  EXPECT_EQ(directs[1].vals, (FieldVec{Fp(8), Fp(9), Fp(10), Fp(11)}));
}

TEST(MwGroupCodec, WrongTransportClassIsRejected) {
  // RB envelope arriving as a direct send, and vice versa.
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchAck, {0}),
                         /*via_rb=*/false)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchDirect,
                                  {static_cast<int>(MsgType::kMwEchoVal),
                                   0, 0}),
                         /*via_rb=*/true)
                  .empty());
}

TEST(MwGroupCodec, MalformedEnvelopeSidIsRejected) {
  // A child-variant sid, a counter off the attachee-0 slot, and a stray
  // blob are all outside the envelope shape.
  Message env = envelope(MsgType::kMwBatchAck, {0});
  env.sid.variant = 1;
  EXPECT_TRUE(unpack_all(env, true).empty());

  env = envelope(MsgType::kMwBatchAck, {0});
  env.sid.counter += 1;
  EXPECT_TRUE(unpack_all(env, true).empty());

  env = envelope(MsgType::kMwBatchAck, {0});
  env.blob = {0xFF};
  EXPECT_TRUE(unpack_all(env, true).empty());
}

TEST(MwGroupCodec, AttacheeListEnvelopesRejectBadEntries) {
  // Out-of-range attachees (n = 4), duplicates, and a payload the type
  // never carries; a valid prefix must not leak through.
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchAck, {0, 4}), true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchOk, {-1}), true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchAck, {2, 1, 2}), true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchOk, {0}, {Fp(1)}), true)
                  .empty());
}

TEST(MwGroupCodec, SetRunEnvelopesRejectTruncation) {
  // (j, len, members...) runs: short header, length past the end,
  // negative length, duplicate session.
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchLset, {0}), true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchLset, {0, 5, 1, 2}),
                         true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchMset, {0, -1}), true)
                  .empty());
  EXPECT_TRUE(
      unpack_all(envelope(MsgType::kMwBatchMset, {1, 1, 0, 1, 1, 2}), true)
          .empty());
}

TEST(MwGroupCodec, ReconEnvelopesRejectMalformedPairs) {
  // Odd int run, value-count mismatch, out-of-range monitored poly,
  // duplicate (attachee, poly) pair.
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchReconVal, {0, 1, 2},
                                  {Fp(1)}),
                         true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchReconVal, {0, 1},
                                  {Fp(1), Fp(2)}),
                         true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchReconVal, {0, 4},
                                  {Fp(1)}),
                         true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchReconVal,
                                  {0, 1, 0, 1}, {Fp(1), Fp(2)}),
                         true)
                  .empty());
}

TEST(MwGroupCodec, DirectEnvelopesRejectMalformedTriples) {
  const int echo = static_cast<int>(MsgType::kMwEchoVal);
  // Triple run not a multiple of three, a sub-type outside the direct
  // class, a length past the value vector, trailing unclaimed values,
  // and a duplicated (type, attachee) sub-message.
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchDirect, {echo, 0}),
                         false)
                  .empty());
  EXPECT_TRUE(
      unpack_all(envelope(MsgType::kMwBatchDirect,
                          {static_cast<int>(MsgType::kMwAck), 0, 0}),
                 false)
          .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchDirect, {echo, 0, 2},
                                  {Fp(1)}),
                         false)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchDirect, {echo, 0, 1},
                                  {Fp(1), Fp(2)}),
                         false)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchDirect,
                                  {echo, 1, 1, echo, 1, 1},
                                  {Fp(1), Fp(2)}),
                         false)
                  .empty());
}

}  // namespace
}  // namespace svss

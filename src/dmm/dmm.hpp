// DMM — the Detection and Message Management protocol (paper Section 3.3).
//
// One DMM instance runs per process, indefinitely, concurrently with all
// VSS invocations.  It decides, for every inbound MW-SVSS/SVSS message,
// whether to act on it, delay it, or discard it:
//
//  * D_i        — processes known faulty; all their messages are discarded
//                 (rule 4).
//  * ACK_i      — tuples (j, l, c, x): as the *dealer* of session (c, i),
//                 process i expects j to eventually RB-broadcast
//                 "f_l(j) = x" during that session's reconstruct (added at
//                 S' step 7).
//  * DEAL_i     — tuples (j, c, l, x): as a *monitor* in session (c, l),
//                 i expects j to RB-broadcast "f_i(j) = x" (added at S'
//                 step 3, possibly dropped at step 8).
//  * ->_i order — session s precedes s' at i iff i completed s's
//                 reconstruct before it began s'.  A message from j in
//                 session s' is delayed while some expectation about j
//                 from a preceding session is unresolved (rule 5).
//
// When an expected broadcast arrives with the wrong value, j enters D_i
// (rules 2-3) — explicit detection.  When it never arrives, every later
// session's messages from j stay delayed forever — *shunning without
// knowing*, the property Definition 1 captures.  Either way j can break
// validity/binding against i at most once per (i, j) pair, which is what
// bounds the adversary to O(n^2) broken sessions overall.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/field.hpp"
#include "common/flat_map.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

// A session's protocol state machine (MW-SVSS or SVSS).  It lives in the
// session's DMM record, so routing finds the DMM state and the session
// with one probe.
class SessionMachine {
 public:
  SessionMachine() = default;
  SessionMachine(const SessionMachine&) = delete;
  SessionMachine& operator=(const SessionMachine&) = delete;
  virtual ~SessionMachine() = default;
};

class Dmm {
 public:
  struct Hooks {
    // Invoked when j is added to D_i (explicit detection).  `where` is the
    // session whose expectation j violated.
    std::function<void(Context&, int suspect, const SessionId& where)> on_shun;
    // Re-injects a previously delayed message into the owner's routing.
    std::function<void(Context&, int from, const Message&, bool via_rb)>
        redeliver;
  };

  // One record per MW-SVSS/SVSS session, interned on first local contact
  // and never erased.  Every per-session table is indexed by process id
  // (sender * n + poly for the two-id ones) and allocated lazily.
  struct Session {
    static constexpr std::uint64_t kUnborn = ~std::uint64_t{0};
    SessionId sid;
    // ->_i bookkeeping: birth is the completion counter when the session
    // began locally; done is its 1-based completion order (0 while open).
    std::uint64_t birth = kUnborn;
    std::uint64_t done = 0;
    std::vector<int> open;                 // sender -> open expectations
    std::vector<std::optional<Fp>> ack;    // (sender, poly) -> ACK value
    std::vector<std::optional<Fp>> deal;   // sender -> DEAL value
    // Reconstruct broadcasts received before completion, (origin, poly) ->
    // value: consulted when expectations are added late.
    std::vector<std::optional<Fp>> seen;
    std::unique_ptr<SessionMachine> machine;
  };

  Dmm(int n, Hooks hooks);

  // The session's record: find() is lookup-only (nullptr if none), so a
  // peer's message never creates state before it passes filter().
  [[nodiscard]] Session* find(const SessionId& sid) const;
  Session& intern(const SessionId& sid);

  // ------------------------------------------------------------------
  // Ingress filtering (rules 4 and 5).  Returns true if the caller should
  // act on the message now; false if it was discarded or buffered.  `s`
  // is m.sid's record, or nullptr if it has none yet.
  //
  // Discarding is *session-ordered*, per Definition 1: a detected process
  // j is discarded in sessions that come after (->_i) the session where
  // the detection happened.  Messages of concurrent or earlier sessions
  // still flow — otherwise a detection during one session's reconstruct
  // would strand every in-flight share phase that still needs j's
  // (so-far correct) messages, breaking the Termination properties.
  // For sessions after the anchor, the violated expectation additionally
  // stays unresolved forever, so rule 5 delays them even before the
  // anchor session completes locally.
  // ------------------------------------------------------------------
  bool filter(int from, const Message& m, bool via_rb, const Session* s);

  // True iff j is in D_i (explicit detection happened).
  [[nodiscard]] bool discards(int j) const { return d_.count(j) != 0; }
  // True iff rule 4 drops a message from j in session s.
  [[nodiscard]] bool discard_applies(int j, const Session* s) const;

  // ------------------------------------------------------------------
  // Expectation arrays.  An expectation may be registered *after* the
  // matching reconstruct broadcast already arrived (step 7 runs on the
  // dealer's own schedule, and RB delivers each broadcast exactly once),
  // so additions are checked against the recorded broadcasts of the
  // session: an already-satisfied expectation is dropped on the spot, an
  // already-contradicted one detects the sender immediately.  Process ids
  // outside [0, n) are ignored throughout.
  // ------------------------------------------------------------------
  void add_ack_entry(Context& ctx, int sender, int poly, Session& s, Fp x);
  void add_deal_entry(Context& ctx, int sender, Session& s, Fp x);
  // S' step 8: this process is not in M-hat, so its DEAL expectations for
  // the session no longer matter.
  void clear_deal_entries(Context& ctx, Session& s);
  // Rules 2-3: an RB broadcast "f_poly(origin) = x" for session `s`
  // arrived.  Resolves or violates matching expectations.  Returns false
  // iff the broadcast contradicted an expectation (origin entered D_i).
  bool on_recon_value(Context& ctx, int origin, Session& s, int poly, Fp x);

  // ------------------------------------------------------------------
  // Session order ->_i
  // ------------------------------------------------------------------
  // First local action of the session (dealer initiating, or first acted-on
  // message).  Freezes the set of sessions that precede it.
  Session& note_begin(const SessionId& sid);
  // Local completion of the session's reconstruct.
  void note_complete(Session& s);

  // ------------------------------------------------------------------
  // Introspection (tests, benchmarks, examples)
  // ------------------------------------------------------------------
  [[nodiscard]] const std::set<int>& detected() const { return d_; }
  [[nodiscard]] std::size_t pending_expectations(int sender) const;
  [[nodiscard]] std::size_t buffered_messages() const;
  [[nodiscard]] bool is_blocked(int from, const Session* s) const;

 private:
  struct Delayed {
    int from;
    bool via_rb;
    Message msg;
  };
  struct Peer {
    const Session* anchor = nullptr;  // first detection session
    std::size_t open = 0;  // unresolved expectations over all sessions
    // Completion orders of *completed* sessions that still hold unresolved
    // expectations about this sender.  The rule-5 test reduces to comparing
    // the minimum against the target session's birth — O(log) instead of a
    // scan over every open session (which dominates runtime at coin scale).
    std::multiset<std::uint64_t> blocking_orders;
    std::vector<Delayed> delayed;  // rule-5 buffer, arrival order
  };

  [[nodiscard]] bool valid(int id) const { return id >= 0 && id < n_; }
  [[nodiscard]] bool tracked(int id) const {
    return id >= 0 && static_cast<std::size_t>(id) < peers_.size();
  }
  static std::size_t at(int id) { return static_cast<std::size_t>(id); }
  [[nodiscard]] std::size_t cell(int sender, int poly) const {
    return at(sender) * at(n_) + at(poly);
  }
  void add_to_d(Context& ctx, int j, const Session& where);
  void note_expectation(int sender, Session& s);
  void drop_expectation(Context& ctx, int sender, Session& s);
  // Frees a completed session's expectation tables once nothing is open.
  static void release_if_resolved(Session& s);
  void flush_delayed(Context& ctx, int sender);

  // Per-peer state lives in a vector indexed by process id, per-session
  // state in the interned records: DMM sits on the delivery hot path
  // (every VSS message passes filter(), every recon broadcast passes rules
  // 2-3), so one probe finds everything a message touches.
  int n_;
  Hooks hooks_;
  // Records never move once created, so sessions may hold references.
  FlatMap<SessionId, std::unique_ptr<Session>, SessionIdHash> sessions_;
  std::set<int> d_;
  // Sized n by the first expectation or detection, so a node whose VSS
  // layers never run allocates none.
  std::vector<Peer> peers_;
  std::uint64_t completions_ = 0;
};

}  // namespace svss

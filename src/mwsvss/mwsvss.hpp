// MW-SVSS — Moderated Weak Shunning Verifiable Secret Sharing (paper
// Section 3.2).
//
// One invocation has a dealer (input s) and a moderator (input s'), plus
// n - 2..n other participants.  The share protocol S' commits the dealer to
// a value the nonfaulty moderator endorses; the reconstruct protocol R'
// outputs that value or bottom — unless the adversary breaks the session,
// in which case some nonfaulty process starts shunning some faulty process
// (via the DMM expectations this protocol registers).
//
// Identifier conventions: processes are 0-based; the field point of
// process i is x = i + 1, so the secret lives at x = 0 and is never a
// share point.  "f_l" below is the polynomial monitored by process l, with
// f_l(0) = f(point(l)).
#pragma once

#include <optional>
#include <vector>

#include "common/field.hpp"
#include "common/polynomial.hpp"
#include "dmm/dmm.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

// Field point of a 0-based process id.
inline Fp point(int id) { return Fp(id + 1); }

// Services a MW-SVSS session needs from its owning process.  Implemented
// by core::Node (and by test fixtures).
class MwHost {
 public:
  virtual ~MwHost() = default;
  virtual void rb_broadcast(Context& ctx, const Message& m) = 0;
  virtual void send_direct(Context& ctx, int to, Message m) = 0;
  virtual Dmm& dmm() = 0;
  // Completion callbacks, each invoked at most once per session.
  virtual void mw_share_completed(Context& ctx, const SessionId& sid) = 0;
  virtual void mw_recon_output(Context& ctx, const SessionId& sid,
                               std::optional<Fp> value) = 0;
};

// Protocol state machine for one MW-SVSS session at one process.  All
// inputs arrive through dealer initiation (deal), moderator input, the
// reconstruct trigger, and pre-filtered messages; every handler re-runs the
// step conditions of S' (steps 3-9) that could have become true.
class MwSvssSession : public SessionMachine {
 public:
  MwSvssSession(MwHost& host, SessionId sid, int self, int n, int t);

  // Dealer only (S' step 1): draw f, f_1..f_n and distribute shares.
  void deal(Context& ctx, Fp secret);
  // Moderator only: provides s'.  May arrive after messages have; pending
  // moderator logic re-runs.
  void set_moderator_input(Context& ctx, Fp s_prime);
  // Begins R' (R' step 1).  The caller guarantees S' completed locally.
  void start_reconstruct(Context& ctx);

  // Pre-filtered (DMM-approved) message entry points.
  void on_direct(Context& ctx, int from, const Message& m);
  void on_broadcast(Context& ctx, int origin, const Message& m);

  [[nodiscard]] const SessionId& sid() const { return sid_; }
  [[nodiscard]] bool share_complete() const { return share_done_; }
  [[nodiscard]] bool recon_started() const { return recon_started_; }
  [[nodiscard]] bool has_output() const { return output_ready_; }
  // Valid once has_output(); nullopt encodes bottom.
  [[nodiscard]] std::optional<Fp> output() const { return output_; }

  // Drops bulky per-session state once both phases are finished (keeps the
  // outputs).  Long agreement runs create hundreds of thousands of
  // sessions; without this the simulator's memory grows unboundedly.
  void compact();

  // Debug/tests: phase flags snapshot.
  struct StateSnapshot {
    bool dealt;
    bool have_shares;
    bool have_poly;
    bool echoed;
    bool lset_sent;
    bool have_mset;
    bool ok_seen;
    bool share_done;
    bool recon_started;
    bool recon_broadcast_done;
    bool output_ready;
    bool compacted;
  };
  [[nodiscard]] StateSnapshot state() const {
    return StateSnapshot{dealt_,        row_vals_.has_value(),
                         my_poly_.has_value(), echoed_,
                         lset_sent_,    mset_.has_value(),
                         ok_seen_,      share_done_,
                         recon_started_, recon_broadcast_done_,
                         output_ready_, compacted_};
  }

 private:
  [[nodiscard]] int dealer() const { return sid_.owner; }
  [[nodiscard]] int moderator() const { return sid_.moderator; }
  [[nodiscard]] bool valid_pid(int p) const { return p >= 0 && p < n_; }
  static std::size_t at(int id) { return static_cast<std::size_t>(id); }
  // Checks that `ids` is a plausible participant set of size >= n - t.
  [[nodiscard]] bool valid_pid_set(const std::vector<int>& ids) const;
  // True iff monitor l's L-hat set arrived and all its confirmers acked.
  [[nodiscard]] bool lset_acked(int l) const;
  [[nodiscard]] std::vector<int> members(const PidSet& set) const;

  void progress(Context& ctx);
  void try_echo_and_ack(Context& ctx);       // step 2
  void try_add_deal_entries(Context& ctx);   // step 3
  void try_broadcast_lset(Context& ctx);     // step 4
  void moderator_progress(Context& ctx);     // steps 5-6
  void dealer_progress(Context& ctx);        // step 7
  void try_complete_share(Context& ctx);     // step 9
  void recon_progress(Context& ctx);         // R' steps 2-4
  Message base_msg(MsgType type) const;

  MwHost& host_;
  SessionId sid_;
  Dmm::Session& rec_;  // this session's DMM record
  int self_;
  int n_;
  int t_;

  // --- dealer state ---
  std::vector<Polynomial> dealer_polys_;  // f_1..f_n (dealer only)
  Polynomial dealer_f_;
  bool dealt_ = false;
  bool ok_sent_ = false;

  // --- share-phase participant state ---
  // Per-process tables are indexed by process id and iterated ascending.
  std::optional<FieldVec> row_vals_;        // f-hat^self_1..n from dealer
  std::optional<Polynomial> my_poly_;       // f-hat_self
  bool echoed_ = false;                     // step 2 done
  std::vector<std::optional<Fp>> echo_from_;  // l -> f-hat^l_self
  PidSet acked_;                            // ack broadcasts seen
  PidSet deal_added_;                       // confirmers with DEAL entries
  bool lset_sent_ = false;
  std::vector<std::vector<int>> lsets_;     // monitor l -> L-hat_l (or empty)
  std::optional<std::vector<int>> mset_;    // M-hat from the moderator
  bool ok_seen_ = false;
  bool share_done_ = false;

  // --- moderator state ---
  std::optional<Polynomial> whole_poly_;    // f-hat from the dealer
  std::optional<Fp> mod_input_;             // s'
  std::vector<std::optional<Fp>> monitor_vals_;  // j -> f-hat^j(0)
  PidSet m_building_;
  bool mset_sent_ = false;

  // --- reconstruct state ---
  bool recon_started_ = false;
  bool recon_broadcast_done_ = false;
  struct ReconVal {
    int from;
    int l;
    Fp x;
  };
  std::vector<ReconVal> recon_vals_;        // arrival order
  // One recon value per (origin, monitored poly).  With per-session RBC
  // framing the instance id (origin, sid, type, l) enforces this
  // structurally; with the group-coalesced transport a Byzantine origin
  // could replay a pair across two envelope flushes, so the session pins
  // the uniqueness itself (duplicate points would poison interpolation).
  // An (origin, l) bitmap sized n*n lazily — recon broadcasts are the
  // dominant MW traffic class, so this sits on the delivery hot path and
  // must not allocate per insert.
  std::vector<bool> recon_seen_;
  std::size_t recon_cursor_ = 0;
  // Sized n when the reconstruct starts.
  std::vector<std::vector<std::pair<Fp, Fp>>> kvals_;  // l -> K_{self,l}
  std::vector<std::optional<Polynomial>> fbar_;  // l -> interpolated f-bar_l
  bool output_ready_ = false;
  std::optional<Fp> output_;
  bool compacted_ = false;
};

}  // namespace svss

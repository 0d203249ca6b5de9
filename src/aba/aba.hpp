// Asynchronous Byzantine agreement from a shunning common coin (paper
// Section 5, Theorem 1).
//
// The paper composes SVSS into the Canetti-Rabin agreement skeleton: rounds
// of justified voting whose fallback estimate is a common-coin flip.  We
// implement the round structure with three exchanges per round:
//
//  1. EST, a BV-broadcast (t+1 relay / 2t+1 accept thresholds): the set
//     bin_values collects only values proposed by nonfaulty processes.
//  2. AUX, a plain broadcast of one bin value; a process waits for n-t
//     AUX values justified by its bin_values and takes their union V.
//  3. CONF, a *reliable* broadcast of V; a process waits for n-t justified
//     CONF sets, then:  >= 2t+1 sets == {v} -> decide v;
//                       >=  t+1 sets == {v} -> est := v;
//                       otherwise            est := coin(round).
//
// Safety never depends on the coin: two singleton CONF values cannot
// coexist (an honest CONF {v} needs > half of a justified AUX sample), and
// a decision's 2t+1 CONF {v} broadcasts force >= t+1 of them into every
// other process's sample, so nobody falls through to the coin in a
// deciding round.  The coin — which the SCC guarantees to be common with
// probability >= 1/4 except in the at most t(n-t) shunning rounds — only
// drives termination, giving the paper's expected O(n^2) rounds.
//
// Decisions are additionally aggregated: a process that decides announces
// DECIDE(v); t+1 matching announcements let others adopt the decision
// directly.  Processes keep participating after deciding (the simulation
// harness stops a run once every nonfaulty process has decided).
//
// The SVSS coin is lazy.  Entering a round deals nothing; a process starts
// dealing the round-r coin (n SVSS sessions, each with its MW-SVSS
// children) only when
//   (a) its own round-r CONF sample froze with no value at t+1 singletons
//       and the coin has not arrived yet, or
//   (b) a peer's dealer shares for coin r passed its DMM filter
//       (on_peer_coin) and it has reached round r; a join for a later
//       round is remembered and honoured on entering that round.
// Termination: if some honest process needs coin r it deals, so every
// honest process receives its dealer shares; each of them has passed
// round r or will reach it, and then deals too.  So at least n-t dealers
// finish and every honest process outputs the coin.  A coin round that
// was never dealt locally still reconstructs and outputs from the peers'
// dealings, and an output that arrives before it is needed is used.
// Unpredictability: an honest process starts a coin only after it froze
// its own CONF sample (or was pulled in by a peer for a round it already
// reached), never on round entry.  A Byzantine dealer can pull honest
// processes in early only for rounds they have reached, which is no
// earlier than dealing on round entry would.  Rounds after a decision
// give every process t+1 singletons, so they never fall through to the
// coin and cost votes only.  kLocal and kIdealCommon draw their coin on
// round entry.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

// Where the round-r fallback coin comes from.
enum class CoinMode {
  kSvss,         // the paper's protocol: one SCC instance per round
  kLocal,        // Ben-Or/Bracha-style private coin (exponential baseline)
  kIdealCommon,  // perfect common coin from a shared seed (SCC abstraction,
                 // used to scale round-count experiments past the reach of
                 // the full O(n^7)-message stack)
};

class AbaHost {
 public:
  virtual ~AbaHost() = default;
  virtual void rb_broadcast(Context& ctx, const Message& m) = 0;
  virtual void send_direct(Context& ctx, int to, Message m) = 0;
  // Starts coin round `round` of agreement instance `instance` (kSvss
  // mode).  The result comes back through AbaSession::on_coin.
  virtual void start_coin(Context& ctx, std::uint32_t instance,
                          std::uint32_t round) = 0;
  virtual void aba_decided(Context& ctx, int value, std::uint32_t round,
                           std::uint32_t instance) = 0;
};

// Per-instance round-count ceiling, also used to namespace the ideal-coin
// seed mix (instance * kCoinRoundsPerInstance + round), so instance 0's
// bit stream is unchanged from single-instance runs.
inline constexpr std::uint32_t kCoinRoundsPerInstance = 4096;

class AbaSession {
 public:
  // `instance` distinguishes concurrent agreement instances on one node
  // (e.g. the n parallel instances of ACS); it is part of every message's
  // session id and of the coin-round namespace.  Vote tallies are
  // fixed-width pid sets, so n must lie in [1, kMaxN].
  AbaSession(AbaHost& host, int self, int n, int t, CoinMode mode,
             std::uint64_t common_seed, std::uint32_t instance = 0);

  // Enters round 1 with the given binary input.
  void start(Context& ctx, int input);
  // Pre-filtered message entry points.
  void on_direct(Context& ctx, int from, const Message& m);
  void on_broadcast(Context& ctx, int origin, const Message& m);
  // Coin outcome for this instance's round `round` (kSvss mode; ignored in
  // other modes).  The host dispatches by instance id.
  void on_coin(Context& ctx, std::uint32_t round, int bit);
  // A peer dealt its shares of coin round `round` (kSvss mode): join the
  // dealing now if this process has reached that round, else on entering
  // it.  Remembered in every mode and before start(), so a join that
  // arrives before the local session is configured is not lost.
  void on_peer_coin(Context& ctx, std::uint32_t round);
  // Sets the coin source; no effect once started.  Lets a host that
  // created the session for early peer messages apply the coin chosen at
  // start.
  void set_coin(CoinMode mode, std::uint64_t common_seed);

  [[nodiscard]] std::uint32_t instance() const { return instance_; }

  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] int decision() const { return *decision_; }
  [[nodiscard]] std::uint32_t decision_round() const { return decision_round_; }
  [[nodiscard]] std::uint32_t current_round() const { return round_; }

  // Introspection snapshot of one round's voting state (tests/debugging).
  struct RoundSnapshot {
    std::size_t est_senders[2] = {0, 0};
    bool bin[2] = {false, false};
    bool aux_sent = false;
    std::size_t aux_senders = 0;
    bool v_frozen = false;
    bool conf_sent = false;
    std::size_t conf_senders = 0;
    bool conf_frozen = false;
    std::size_t singletons[2] = {0, 0};  // frozen sample's CONF == {v}
    bool has_coin = false;
  };
  [[nodiscard]] RoundSnapshot snapshot(std::uint32_t r) const;

 private:
  // Adds `pid` (in [0, n)) to `seen`; true iff it was not there yet.  Only
  // a sender's first vote of a kind counts, so no tally depends on the
  // order votes arrive in.
  static bool first_from(PidSet& seen, int pid) {
    const auto bit = static_cast<std::size_t>(pid);
    if (seen.test(bit)) return false;
    seen.set(bit);
    return true;
  }
  // Distinct senders of one vote, with their number.
  struct Tally {
    PidSet from;
    int count = 0;
    void add(int pid) {
      if (first_from(from, pid)) ++count;
    }
  };
  // Value sets over {0,1} are 2-bit codes: 1 = {0}, 2 = {1}, 3 = {0,1}.
  struct Round {
    Tally est[2];  // senders of EST(v)
    bool est_sent[2] = {false, false};
    bool bin[2] = {false, false};
    bool aux_sent = false;
    PidSet aux_from;             // senders of an AUX (first value wins)
    int aux_count[2] = {0, 0};   // ... whose first AUX value is v
    int v = 0;                   // frozen AUX union as a set code; 0 = open
    bool conf_sent = false;
    PidSet conf_from;            // origins of a CONF (first set wins)
    int conf_count[4] = {0, 0, 0, 0};  // ... by the code of that first set
    bool conf_frozen = false;
    int singleton[2] = {0, 0};   // frozen tally of CONF == {v}
    std::optional<int> coin;
    bool coin_started = false;  // coin requested (kSvss: dealing started)
    bool peer_joined = false;   // a peer dealt this round's SVSS coin
    bool advanced = false;
  };

  void progress(Context& ctx);
  void enter_round(Context& ctx, std::uint32_t r);
  void decide(Context& ctx, int value);
  // `st` is round r's state.
  void send_est(Context& ctx, Round& st, std::uint32_t r, int v);
  // Once per round: draws the coin (kLocal, kIdealCommon) or starts
  // dealing it (kSvss).
  void request_coin(Context& ctx, Round& st, std::uint32_t r);
  Round& round_state(std::uint32_t r);
  [[nodiscard]] bool pid_ok(int pid) const { return pid >= 0 && pid < n_; }

  AbaHost& host_;
  int self_;
  int n_;
  int t_;
  CoinMode mode_;
  std::uint64_t common_seed_;
  std::uint32_t instance_;

  bool started_ = false;
  int est_ = 0;
  std::uint32_t round_ = 0;  // current round, 1-based once started
  // One record per round a vote or coin named.  Map nodes never move, so
  // a Round& stays valid while later rounds are inserted.
  std::map<std::uint32_t, Round> rounds_;
  std::optional<int> decision_;
  std::uint32_t decision_round_ = 0;
  bool decide_sent_ = false;
  Tally decide_from_[2];  // senders of DECIDE(v)
};

}  // namespace svss

#include "core/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/daemon.hpp"

namespace svss {

SessionId mw_top_id(std::uint32_t c, int dealer, int moderator) {
  SessionId sid;
  sid.path = SessionPath::kMwTop;
  sid.owner = static_cast<std::int16_t>(dealer);
  sid.moderator = static_cast<std::int16_t>(moderator);
  sid.counter = c;
  return sid;
}

SessionId svss_top_id(std::uint32_t c, int dealer) {
  SessionId sid;
  sid.path = SessionPath::kSvssTop;
  sid.owner = static_cast<std::int16_t>(dealer);
  sid.counter = c;
  return sid;
}

namespace {

RunnerConfig validate(RunnerConfig cfg) {
  if (cfg.n <= 0) throw std::invalid_argument("Runner: n must be positive");
  if (cfg.n > static_cast<int>(kMaxN)) {
    // Session counters and the RB sender bitsets encode process ids in
    // [0, kMaxN); larger systems need a wider id space first.
    throw std::invalid_argument("Runner: n exceeds kMaxN");
  }
  if (cfg.t < 0) throw std::invalid_argument("Runner: t must be >= 0");
  if (!cfg.allow_sub_resilience && cfg.n < 3 * cfg.t + 1) {
    throw std::invalid_argument(
        "Runner: n < 3t+1 breaks the paper's resilience bound; set "
        "allow_sub_resilience to experiment beyond it");
  }
  if (cfg.transport.kind == TransportKind::kSocketLoopback &&
      !cfg.adversaries.empty()) {
    throw std::invalid_argument(
        "Runner: adversary strategies need the deterministic sim backend; "
        "socket-loopback supports ByzConfig wire faults only");
  }
  return cfg;
}

// The Runner's half of the widened scheduler seam: delivery clock from the
// engine, slot classification from the adversary layer.  Everything served
// is deterministic in the run config, so schedulers consulting it replay.
class RunnerScheduleView final : public ScheduleView {
 public:
  RunnerScheduleView(const Engine* engine,
                     const std::vector<AdversarySlot*>* advs)
      : engine_(engine), advs_(advs) {}

  [[nodiscard]] std::uint64_t deliveries() const override {
    return engine_->metrics().packets_delivered;
  }
  [[nodiscard]] bool is_adversary(int id) const override {
    auto idx = static_cast<std::size_t>(id);
    return idx < advs_->size() && (*advs_)[idx] != nullptr;
  }
  [[nodiscard]] bool is_deceived(int id) const override {
    for (const AdversarySlot* slot : *advs_) {
      if (slot != nullptr && slot->is_deceiving(id)) return true;
    }
    return false;
  }

 private:
  const Engine* engine_;
  const std::vector<AdversarySlot*>* advs_;
};

std::unique_ptr<Scheduler> build_scheduler(const RunnerConfig& cfg) {
  std::uint64_t sched_seed = cfg.seed ^ 0x5C4EDULL;
  if (cfg.scheduler_factory) {
    auto sched = cfg.scheduler_factory(sched_seed, cfg.n, cfg.t);
    if (!sched) {
      throw std::invalid_argument("Runner: scheduler_factory returned null");
    }
    return sched;
  }
  return make_scheduler(cfg.scheduler, sched_seed, cfg.n, cfg.t);
}

}  // namespace

Runner::Runner(RunnerConfig cfg)
    : cfg_(validate(std::move(cfg))),
      engine_(cfg_.n, cfg_.t, cfg_.seed, build_scheduler(cfg_)) {
  nodes_.resize(static_cast<std::size_t>(cfg_.n));
  advs_.resize(static_cast<std::size_t>(cfg_.n));
  for (int i = 0; i < cfg_.n; ++i) {
    std::uint64_t slot_seed =
        cfg_.seed * 1315423911ULL + static_cast<std::uint64_t>(i);
    bool batched_mw = cfg_.transport.batched_mw(i);
    auto fit = cfg_.faults.find(i);
    Engine::Interceptor wire;
    if (fit != cfg_.faults.end() && fit->second.kind != ByzKind::kHonest) {
      wire = make_byzantine_interceptor(fit->second, cfg_.n, cfg_.t,
                                        slot_seed);
    }
    auto ait = cfg_.adversaries.find(i);
    if (ait != cfg_.adversaries.end()) {
      // Adversary slot: the strategy replaces the honest Node.  Its
      // outbound gate runs first; a ByzConfig wire interceptor for the
      // same slot composes on top of whatever the strategy emits.
      AdversaryEnv env{i, cfg_.n, cfg_.t, slot_seed,
                       cfg_.transport.batched_coin(), batched_mw};
      std::unique_ptr<AdversarySlot> slot = ait->second(env);
      if (!slot) throw std::invalid_argument("Runner: null adversary slot");
      advs_[static_cast<std::size_t>(i)] = slot.get();
      AdversarySlot* raw = slot.get();
      engine_.set_process(i, std::move(slot));
      engine_.set_interceptor(
          i, [raw, wire](int from, int to, Packet& p) {
            if (!raw->on_outbound(to, p)) return false;
            return !wire || wire(from, to, p);
          });
      continue;
    }
    auto node = std::make_unique<Node>(i, cfg_.n, cfg_.t,
                                       cfg_.transport.batched_coin(),
                                       batched_mw,
                                       cfg_.transport.batched_votes());
    nodes_[static_cast<std::size_t>(i)] = node.get();
    engine_.set_process(i, std::move(node));
    if (wire) engine_.set_interceptor(i, std::move(wire));
  }
  // Widened scheduler seam: hand the scheduler its observable-state view
  // now that every adversary slot exists.  Attached before any send, so
  // even start()-burst priorities may consult it.
  sched_view_ = std::make_unique<RunnerScheduleView>(&engine_, &advs_);
  engine_.scheduler().attach(sched_view_.get());
}

Node& Runner::node(int i) {
  Node* n = nodes_.at(static_cast<std::size_t>(i));
  if (n == nullptr) {
    throw std::logic_error("Runner: slot " + std::to_string(i) +
                           " hosts an adversary strategy, not a Node");
  }
  return *n;
}

AdversarySlot* Runner::adversary(int i) {
  return advs_.at(static_cast<std::size_t>(i));
}

void Runner::set_slot_start(int i, std::function<void(Context&, Node&)> a) {
  if (AdversarySlot* adv = advs_.at(static_cast<std::size_t>(i))) {
    adv->set_start_action(std::move(a));
  } else {
    node(i).set_start_action(std::move(a));
  }
}

bool Runner::is_honest(int i) const {
  if (cfg_.adversaries.count(i) != 0) return false;
  auto it = cfg_.faults.find(i);
  return it == cfg_.faults.end() || it->second.kind == ByzKind::kHonest;
}

std::vector<int> Runner::honest_ids() const {
  std::vector<int> out;
  for (int i = 0; i < cfg_.n; ++i) {
    if (is_honest(i)) out.push_back(i);
  }
  return out;
}

std::vector<std::pair<int, int>> Runner::honest_shun_pairs() const {
  std::vector<std::pair<int, int>> out;
  for (const auto& [i, j] : engine_.log().shun_pairs()) {
    if (is_honest(i)) out.emplace_back(i, j);
  }
  return out;
}

RunStatus Runner::run_until_honest(
    const std::function<bool(const Node&)>& pred) {
  // The done() predicate runs after *every* delivery, so it must be cheap.
  // All driver predicates are monotone (decided/has_output/share_complete
  // never go back to false), so nodes already satisfied are dropped from
  // the waiting list and the typical per-delivery cost is one predicate
  // call — not an honest_ids() allocation plus a full scan.
  std::vector<int> waiting = honest_ids();
  RunStatus status = engine_.run_until(
      [this, &pred, &waiting] {
        while (!waiting.empty() && pred(node(waiting.back()))) {
          waiting.pop_back();
        }
        return waiting.empty();
      },
      cfg_.max_deliveries);
  if (status == RunStatus::kDeliveryCap && cfg_.warn_on_cap) {
    // Never silent: a capped run is a potential non-termination witness.
    // The flag also lands in Metrics::capped for programmatic sweeps.
    std::fprintf(stderr,
                 "Runner: delivery cap hit (seed=%llu n=%d t=%d): %s\n",
                 static_cast<unsigned long long>(cfg_.seed), cfg_.n, cfg_.t,
                 engine_.metrics().summary().c_str());
  }
  return status;
}

// ---------------------------------------------------------------------
// MW-SVSS
// ---------------------------------------------------------------------
Runner::MwResult Runner::run_mwsvss(Fp secret, Fp moderator_input, int dealer,
                                    int moderator, bool reconstruct) {
  SessionId sid = mw_top_id(1, dealer, moderator);
  set_slot_start(dealer, [sid, secret](Context& c, Node& nd) {
    nd.mw(c, sid).deal(c, secret);
  });
  if (moderator != dealer) {
    set_slot_start(moderator,
        [sid, moderator_input](Context& c, Node& nd) {
          nd.mw(c, sid).set_moderator_input(c, moderator_input);
        });
  }

  MwResult res;
  res.status = run_until_honest([&](const Node& nd) {
    const MwSvssSession* s = nd.find_mw(sid);
    return s != nullptr && s->share_complete();
  });
  res.all_honest_shared = true;
  for (int i : honest_ids()) {
    const MwSvssSession* s = node(i).find_mw(sid);
    if (s == nullptr || !s->share_complete()) res.all_honest_shared = false;
  }

  if (reconstruct && res.all_honest_shared) {
    // Every process that completed the share phase enters R' — including
    // Byzantine ones, which run the honest code behind a corrupted wire.
    for (int i = 0; i < cfg_.n; ++i) {
      if (nodes_[static_cast<std::size_t>(i)] == nullptr) continue;
      const MwSvssSession* s = node(i).find_mw(sid);
      if (s == nullptr || !s->share_complete()) continue;
      Context c = ctx(i);
      node(i).mw(c, sid).start_reconstruct(c);
    }
    res.status = run_until_honest([&](const Node& nd) {
      const MwSvssSession* s = nd.find_mw(sid);
      return s != nullptr && s->has_output();
    });
    res.all_honest_output = true;
    for (int i : honest_ids()) {
      const MwSvssSession* s = node(i).find_mw(sid);
      if (s != nullptr && s->has_output()) {
        res.outputs.emplace(i, s->output());
      } else {
        res.all_honest_output = false;
      }
    }
  }
  res.shun_pairs = honest_shun_pairs();
  res.metrics = engine_.metrics();
  return res;
}

// ---------------------------------------------------------------------
// SVSS
// ---------------------------------------------------------------------
Runner::SvssResult Runner::run_svss(Fp secret, int dealer, bool reconstruct) {
  SessionId sid = svss_top_id(1, dealer);
  set_slot_start(dealer, [sid, secret](Context& c, Node& nd) {
    nd.svss(c, sid).deal(c, secret);
  });

  SvssResult res;
  res.status = run_until_honest([&](const Node& nd) {
    const SvssSession* s = nd.find_svss(sid);
    return s != nullptr && s->share_complete();
  });
  res.all_honest_shared = true;
  for (int i : honest_ids()) {
    const SvssSession* s = node(i).find_svss(sid);
    if (s == nullptr || !s->share_complete()) res.all_honest_shared = false;
  }

  if (reconstruct && res.all_honest_shared) {
    for (int i = 0; i < cfg_.n; ++i) {
      if (nodes_[static_cast<std::size_t>(i)] == nullptr) continue;
      const SvssSession* s = node(i).find_svss(sid);
      if (s == nullptr || !s->share_complete()) continue;
      Context c = ctx(i);
      node(i).svss(c, sid).start_reconstruct(c);
    }
    res.status = run_until_honest([&](const Node& nd) {
      const SvssSession* s = nd.find_svss(sid);
      return s != nullptr && s->has_output();
    });
    res.all_honest_output = true;
    for (int i : honest_ids()) {
      const SvssSession* s = node(i).find_svss(sid);
      if (s != nullptr && s->has_output()) {
        res.outputs.emplace(i, s->output());
      } else {
        res.all_honest_output = false;
      }
    }
  }
  res.shun_pairs = honest_shun_pairs();
  res.metrics = engine_.metrics();
  return res;
}

// ---------------------------------------------------------------------
// Common coin
// ---------------------------------------------------------------------
Runner::CoinResult Runner::run_coin(std::uint32_t round) {
  if (cfg_.transport.kind == TransportKind::kSocketLoopback) {
    return run_coin_loopback(round);
  }
  for (int i = 0; i < cfg_.n; ++i) {
    set_slot_start(i, [round](Context& c, Node& nd) {
      nd.coin(c, round).start(c);
    });
  }
  CoinResult res;
  res.status = run_until_honest([&](const Node& nd) {
    const CoinSession* cs = nd.find_coin(round);
    return cs != nullptr && cs->has_output();
  });
  res.all_output = true;
  for (int i : honest_ids()) {
    const CoinSession* cs = node(i).find_coin(round);
    if (cs != nullptr && cs->has_output()) {
      res.bits.emplace(i, cs->output());
    } else {
      res.all_output = false;
    }
  }
  res.agreed = res.all_output && !res.bits.empty();
  for (const auto& [i, b] : res.bits) {
    if (b != res.bits.begin()->second) res.agreed = false;
  }
  res.shun_pairs = honest_shun_pairs();
  res.metrics = engine_.metrics();
  return res;
}

// ---------------------------------------------------------------------
// Socket-loopback drivers: the same experiments over n real TCP
// endpoints (core/daemon.hpp) instead of the simulator.  Results carry
// the cluster's merged log/metrics; the merged events are also copied
// into engine_.log() so honest_shun_pairs() & co. keep working.
// ---------------------------------------------------------------------
namespace {

LoopbackOptions loopback_options(const RunnerConfig& cfg) {
  LoopbackOptions opts;
  opts.n = cfg.n;
  opts.t = cfg.t;
  opts.seed = cfg.seed;
  opts.transport = cfg.transport;
  opts.faults = cfg.faults;
  return opts;
}

}  // namespace

Runner::CoinResult Runner::run_coin_loopback(std::uint32_t round) {
  LoopbackCluster cluster(loopback_options(cfg_));
  for (int i = 0; i < cfg_.n; ++i) {
    cluster.node(i).set_start_action([round](Context& c, Node& nd) {
      nd.coin(c, round).start(c);
    });
  }
  bool finished = cluster.run(
      [round](const Node& nd) {
        const CoinSession* cs = nd.find_coin(round);
        return cs != nullptr && cs->has_output();
      },
      [this](int i) { return is_honest(i); });
  CoinResult res;
  res.status = finished ? RunStatus::kQuiescent : RunStatus::kDeliveryCap;
  res.all_output = finished;
  for (int i : honest_ids()) {
    const CoinSession* cs = cluster.node(i).find_coin(round);
    if (cs != nullptr && cs->has_output()) {
      res.bits.emplace(i, cs->output());
    } else {
      res.all_output = false;
    }
  }
  res.agreed = res.all_output && !res.bits.empty();
  for (const auto& [i, b] : res.bits) {
    if (b != res.bits.begin()->second) res.agreed = false;
  }
  EventLog merged = cluster.merged_log();
  for (const Event& e : merged.events()) {
    engine_.log().record(e);
  }
  res.shun_pairs = honest_shun_pairs();
  res.metrics = cluster.merged_metrics();
  return res;
}

Runner::AbaResult Runner::run_aba_loopback(const std::vector<int>& inputs,
                                           CoinMode mode) {
  std::uint64_t coin_seed = cfg_.seed ^ 0xC01Full;
  LoopbackCluster cluster(loopback_options(cfg_));
  for (int i = 0; i < cfg_.n; ++i) {
    int input = inputs[static_cast<std::size_t>(i)];
    cluster.node(i).set_start_action(
        [input, mode, coin_seed](Context& c, Node& nd) {
          nd.start_aba(c, input, mode, coin_seed);
        });
  }
  bool finished = cluster.run(
      [](const Node& nd) {
        return nd.aba() != nullptr && nd.aba()->decided();
      },
      [this](int i) { return is_honest(i); });
  AbaResult res;
  res.status = finished ? RunStatus::kQuiescent : RunStatus::kDeliveryCap;
  res.all_decided = finished;
  for (int i : honest_ids()) {
    const AbaSession* a = cluster.node(i).aba();
    if (a != nullptr && a->decided()) {
      res.decisions.emplace(i, a->decision());
      res.decision_rounds.emplace(i, a->decision_round());
      res.max_round = std::max(res.max_round, a->decision_round());
    } else {
      res.all_decided = false;
    }
  }
  res.agreed = res.all_decided && !res.decisions.empty();
  if (!res.decisions.empty()) res.value = res.decisions.begin()->second;
  for (const auto& [i, v] : res.decisions) {
    if (v != res.value) res.agreed = false;
  }
  EventLog merged = cluster.merged_log();
  for (const Event& e : merged.events()) {
    engine_.log().record(e);
  }
  res.shun_pairs = honest_shun_pairs();
  res.metrics = cluster.merged_metrics();
  return res;
}

// ---------------------------------------------------------------------
// Agreement
// ---------------------------------------------------------------------
Runner::AbaResult Runner::run_aba(const std::vector<int>& inputs,
                                  CoinMode mode) {
  if (static_cast<int>(inputs.size()) != cfg_.n) {
    throw std::invalid_argument("run_aba: need one input per process");
  }
  if (cfg_.transport.kind == TransportKind::kSocketLoopback) {
    return run_aba_loopback(inputs, mode);
  }
  std::uint64_t coin_seed = cfg_.seed ^ 0xC01Full;
  for (int i = 0; i < cfg_.n; ++i) {
    int input = inputs[static_cast<std::size_t>(i)];
    set_slot_start(i, [input, mode, coin_seed](Context& c, Node& nd) {
      nd.start_aba(c, input, mode, coin_seed);
    });
  }
  AbaResult res;
  res.status = run_until_honest([](const Node& nd) {
    return nd.aba() != nullptr && nd.aba()->decided();
  });
  res.all_decided = true;
  for (int i : honest_ids()) {
    const AbaSession* a = node(i).aba();
    if (a != nullptr && a->decided()) {
      res.decisions.emplace(i, a->decision());
      res.decision_rounds.emplace(i, a->decision_round());
      res.max_round = std::max(res.max_round, a->decision_round());
    } else {
      res.all_decided = false;
    }
  }
  res.agreed = res.all_decided && !res.decisions.empty();
  if (!res.decisions.empty()) res.value = res.decisions.begin()->second;
  for (const auto& [i, v] : res.decisions) {
    if (v != res.value) res.agreed = false;
  }
  res.shun_pairs = honest_shun_pairs();
  res.metrics = engine_.metrics();
  return res;
}

void Runner::submit(std::uint32_t instance, std::vector<int> inputs) {
  if (static_cast<int>(inputs.size()) != cfg_.n) {
    throw std::invalid_argument("submit: need one input per process");
  }
  if (!submitted_.emplace(instance, std::move(inputs)).second) {
    throw std::invalid_argument("submit: instance already queued");
  }
}

namespace {

// "Every submitted instance has decided at this node", the completion
// predicate of both run_submitted backends.  It runs after every delivery,
// so each node walks the submitted ids with a cursor of its own: decided()
// never reverts, so an instance once passed is never probed again and a
// check costs O(1) amortized rather than a scan of all k instances.  A
// node's cursor is touched only by checks of that node, so the loopback
// backend's per-node threads share no mutable state.
class AllSubmittedDecided {
 public:
  AllSubmittedDecided(
      const std::map<std::uint32_t, std::vector<int>>& submitted, int n)
      : next_(static_cast<std::size_t>(n), 0) {
    instances_.reserve(submitted.size());
    for (const auto& [instance, inputs] : submitted) {
      (void)inputs;
      instances_.push_back(instance);
    }
  }

  bool operator()(const Node& nd) {
    std::size_t& next = next_[static_cast<std::size_t>(nd.self())];
    while (next < instances_.size()) {
      const AbaSession* a = nd.aba(instances_[next]);
      if (a == nullptr || !a->decided()) return false;
      ++next;
    }
    return true;
  }

 private:
  std::vector<std::uint32_t> instances_;
  std::vector<std::size_t> next_;  // per node: instances_[0, next) decided
};

// Shared result collection for both backends: `get` maps a process id to
// its (possibly remote) Node.
Runner::MultiAbaResult collect_submitted(
    const std::map<std::uint32_t, std::vector<int>>& submitted,
    const std::vector<int>& honest, const std::function<Node&(int)>& get) {
  Runner::MultiAbaResult res;
  res.all_decided = true;
  for (const auto& [instance, inputs] : submitted) {
    (void)inputs;
    std::map<int, int>& per = res.decisions[instance];
    for (int i : honest) {
      const AbaSession* a = get(i).aba(instance);
      if (a != nullptr && a->decided()) {
        per.emplace(i, a->decision());
      } else {
        res.all_decided = false;
      }
    }
    if (!per.empty()) {
      bool same = true;
      for (const auto& [i, v] : per) {
        if (v != per.begin()->second) same = false;
      }
      if (same && static_cast<int>(per.size()) ==
                      static_cast<int>(honest.size())) {
        res.values.emplace(instance, per.begin()->second);
      }
    }
  }
  res.agreed = res.all_decided && !submitted.empty() &&
               res.values.size() == submitted.size();
  return res;
}

}  // namespace

EpochsResult Runner::run_epochs(const std::vector<EpochPlan>& script,
                                CoinMode mode) {
  if (!cfg_.faults.empty() || !cfg_.adversaries.empty()) {
    throw std::invalid_argument(
        "run_epochs: faults/adversaries unsupported; crash members via "
        "EpochPlan::crash_at_boundary");
  }
  if (cfg_.transport.kind == TransportKind::kSocketLoopback) {
    return run_epochs_loopback(cfg_, script, mode);
  }
  return run_epochs_sim(engine_, cfg_, script, mode);
}

Runner::MultiAbaResult Runner::run_submitted(CoinMode mode) {
  if (submitted_.empty()) {
    throw std::invalid_argument("run_submitted: no instances submitted");
  }
  if (cfg_.transport.kind == TransportKind::kSocketLoopback) {
    return run_submitted_loopback(mode);
  }
  std::uint64_t coin_seed = cfg_.seed ^ 0xC01Full;
  for (int i = 0; i < cfg_.n; ++i) {
    // One start action kicks off every submitted instance on this node;
    // their initial EST fan-outs share the cascade's vote envelopes.
    std::vector<std::pair<std::uint32_t, int>> starts;
    for (const auto& [instance, inputs] : submitted_) {
      starts.emplace_back(instance, inputs[static_cast<std::size_t>(i)]);
    }
    set_slot_start(i, [starts, mode, coin_seed](Context& c, Node& nd) {
      for (const auto& [instance, input] : starts) {
        nd.start_aba(c, input, mode, coin_seed, instance);
      }
    });
  }
  AllSubmittedDecided all_decided(submitted_, cfg_.n);
  RunStatus status = run_until_honest(
      [&all_decided](const Node& nd) { return all_decided(nd); });
  MultiAbaResult collected = collect_submitted(
      submitted_, honest_ids(), [this](int i) -> Node& { return node(i); });
  collected.status = status;
  collected.metrics = engine_.metrics();
  submitted_.clear();
  return collected;
}

Runner::MultiAbaResult Runner::run_submitted_loopback(CoinMode mode) {
  std::uint64_t coin_seed = cfg_.seed ^ 0xC01Full;
  LoopbackCluster cluster(loopback_options(cfg_));
  for (int i = 0; i < cfg_.n; ++i) {
    std::vector<std::pair<std::uint32_t, int>> starts;
    for (const auto& [instance, inputs] : submitted_) {
      starts.emplace_back(instance, inputs[static_cast<std::size_t>(i)]);
    }
    cluster.node(i).set_start_action(
        [starts, mode, coin_seed](Context& c, Node& nd) {
          for (const auto& [instance, input] : starts) {
            nd.start_aba(c, input, mode, coin_seed, instance);
          }
        });
  }
  AllSubmittedDecided all_decided(submitted_, cfg_.n);
  bool finished = cluster.run(
      [&all_decided](const Node& nd) { return all_decided(nd); },
      [this](int i) { return is_honest(i); });
  MultiAbaResult res = collect_submitted(
      submitted_, honest_ids(),
      [&cluster](int i) -> Node& { return cluster.node(i); });
  res.status = finished ? RunStatus::kQuiescent : RunStatus::kDeliveryCap;
  EventLog merged = cluster.merged_log();
  for (const Event& e : merged.events()) {
    engine_.log().record(e);
  }
  res.metrics = cluster.merged_metrics();
  submitted_.clear();
  return res;
}

Runner::AbaResult Runner::run_benor(const std::vector<int>& inputs) {
  if (static_cast<int>(inputs.size()) != cfg_.n) {
    throw std::invalid_argument("run_benor: need one input per process");
  }
  for (int i = 0; i < cfg_.n; ++i) {
    int input = inputs[static_cast<std::size_t>(i)];
    set_slot_start(i, [input](Context& c, Node& nd) {
      nd.start_benor(c, input);
    });
  }
  AbaResult res;
  res.status = run_until_honest([](const Node& nd) {
    return nd.benor() != nullptr && nd.benor()->decided();
  });
  res.all_decided = true;
  for (int i : honest_ids()) {
    const BenOrSession* b = node(i).benor();
    if (b != nullptr && b->decided()) {
      res.decisions.emplace(i, b->decision());
      res.decision_rounds.emplace(i, b->decision_round());
      res.max_round = std::max(res.max_round, b->decision_round());
    } else {
      res.all_decided = false;
    }
  }
  res.agreed = res.all_decided && !res.decisions.empty();
  if (!res.decisions.empty()) res.value = res.decisions.begin()->second;
  for (const auto& [i, v] : res.decisions) {
    if (v != res.value) res.agreed = false;
  }
  res.shun_pairs = honest_shun_pairs();
  res.metrics = engine_.metrics();
  return res;
}

// ---------------------------------------------------------------------
// Common subset / secure sum extensions
// ---------------------------------------------------------------------
Runner::AcsResult Runner::run_acs(const std::vector<Bytes>& proposals,
                                  CoinMode mode) {
  if (static_cast<int>(proposals.size()) != cfg_.n) {
    throw std::invalid_argument("run_acs: need one proposal per process");
  }
  std::uint64_t coin_seed = cfg_.seed ^ 0xAC5ull;
  for (int i = 0; i < cfg_.n; ++i) {
    Bytes proposal = proposals[static_cast<std::size_t>(i)];
    set_slot_start(i,
        [proposal, mode, coin_seed](Context& c, Node& nd) {
          nd.start_acs(c, proposal, mode, coin_seed);
        });
  }
  AcsResult res;
  res.status = run_until_honest([](const Node& nd) {
    return nd.acs() != nullptr && nd.acs()->has_output();
  });
  res.all_output = true;
  for (int i : honest_ids()) {
    const AcsSession* a = node(i).acs();
    if (a != nullptr && a->has_output()) {
      res.outputs.emplace(i, a->output());
    } else {
      res.all_output = false;
    }
  }
  res.agreed = res.all_output && !res.outputs.empty();
  for (const auto& [i, out] : res.outputs) {
    if (!(out == res.outputs.begin()->second)) res.agreed = false;
  }
  res.metrics = engine_.metrics();
  return res;
}

Runner::MvbaResult Runner::run_mvba(const std::vector<Fp>& proposals,
                                    Fp default_value, CoinMode mode) {
  if (static_cast<int>(proposals.size()) != cfg_.n) {
    throw std::invalid_argument("run_mvba: need one proposal per process");
  }
  std::uint64_t coin_seed = cfg_.seed ^ 0x3BAull;
  for (int i = 0; i < cfg_.n; ++i) {
    Fp proposal = proposals[static_cast<std::size_t>(i)];
    set_slot_start(i,
        [proposal, default_value, mode, coin_seed](Context& c, Node& nd) {
          nd.start_mvba(c, proposal, default_value, mode, coin_seed);
        });
  }
  MvbaResult res;
  res.status = run_until_honest([](const Node& nd) {
    return nd.mvba() != nullptr && nd.mvba()->decided();
  });
  res.all_decided = true;
  for (int i : honest_ids()) {
    const MvbaSession* s = node(i).mvba();
    if (s != nullptr && s->decided()) {
      res.decisions.emplace(i, s->decision().value());
    } else {
      res.all_decided = false;
    }
  }
  res.agreed = res.all_decided && !res.decisions.empty();
  if (!res.decisions.empty()) res.value = res.decisions.begin()->second;
  for (const auto& [i, v] : res.decisions) {
    if (v != res.value) res.agreed = false;
  }
  res.metrics = engine_.metrics();
  return res;
}

Runner::SumResult Runner::run_secure_sum(const std::vector<Fp>& inputs,
                                         CoinMode mode) {
  if (static_cast<int>(inputs.size()) != cfg_.n) {
    throw std::invalid_argument("run_secure_sum: need one input per process");
  }
  std::uint64_t coin_seed = cfg_.seed ^ 0x50Cull;
  for (int i = 0; i < cfg_.n; ++i) {
    Fp input = inputs[static_cast<std::size_t>(i)];
    set_slot_start(i, [input, mode, coin_seed](Context& c, Node& nd) {
      nd.start_secure_sum(c, input, mode, coin_seed);
    });
  }
  SumResult res;
  res.status = run_until_honest([](const Node& nd) {
    return nd.secure_sum() != nullptr && nd.secure_sum()->has_output();
  });
  res.all_output = true;
  for (int i : honest_ids()) {
    const SecureSumSession* s = node(i).secure_sum();
    if (s != nullptr && s->has_output()) {
      res.outputs.emplace(i, s->output().value());
    } else {
      res.all_output = false;
    }
    if (s != nullptr && s->core()) res.cores.emplace(i, *s->core());
  }
  res.agreed = res.all_output && !res.outputs.empty();
  for (const auto& [i, out] : res.outputs) {
    if (out != res.outputs.begin()->second) res.agreed = false;
  }
  res.metrics = engine_.metrics();
  return res;
}

}  // namespace svss

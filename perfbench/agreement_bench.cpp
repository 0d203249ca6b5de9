// End-to-end agreement benchmark: submit->decide latency, decisions/s and
// per-layer cost of the paper's protocol (shunning-SVSS coin -> ABA) on the
// simulator and on real TCP sockets.
//
//   agreement_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Load shape: a closed loop of batches from one process.  Each batch
// submits k agreement instances together (input of node j for instance i is
// (i + j) % 2) on a fresh stack and waits until every honest node decided
// all of them; the next batch starts only then.  Batch b of a run uses
// protocol seed first_seed(--seed) + b, so a run covers a contiguous seed
// range and no seed is ever skipped for being slow.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
// metrics; on the simulator it runs the same seed range three times
// (untraced, with a delivery trace, with the codec cross-check).  Layers are
// observed from outside, at public seams only: Engine's delivery observer,
// NodeObservers::aba_decided, post-run session lookups, Metrics' per-type
// counters, and timed calls into the socket codec.  The last stdout line is
// one JSON object; anything the benchmark finds wrong (a safety violation,
// an observer/result mismatch, a codec round-trip mismatch, metered packets
// outside the per-type slots, a simulator count that does not repeat)
// makes it print "correct": false and exit 1.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/daemon.hpp"
#include "core/runner.hpp"
#include "net/frame.hpp"

namespace {

using namespace svss;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ----------------------------------------------------------------------
// Workloads (names are the benchmark's public contract)
// ----------------------------------------------------------------------

struct Workload {
  const char* name;
  int n;
  int t;
  std::uint32_t k;  // instances per batch
  CoinMode mode;
  bool socket;
  int wrong_recon_slot;  // slot running ByzKind::kWrongRecon, or -1
};

// sim-svss-n4 runs one instance per batch.  With four, decided instances
// keep running coin rounds until the last one decides, and batch cost
// becomes so heavy-tailed by seed (0.07-90 s at the engine's default lag;
// 15% of batches at 3x cost even with the lag capped at 2^12) that runs
// spread by up to 24% in decisions/s.  perfbench/README.md has the numbers.
constexpr Workload kWorkloads[] = {
    {"sim-svss-n4", 4, 1, 1, CoinMode::kSvss, false, -1},
    {"sim-ideal-n7", 7, 2, 256, CoinMode::kIdealCommon, false, -1},
    {"socket-svss-n4", 4, 1, 4, CoinMode::kSvss, true, -1},
    {"sim-shun-n4", 4, 1, 1, CoinMode::kSvss, false, 3},
};

// A sim batch stopped here counts every instance as failed; so does a
// socket batch that misses the timeout.  Both keep a run within its time
// limit.
constexpr std::uint64_t kMaxDeliveries = 4'000'000;
constexpr int kSocketTimeoutMs = 20'000;

std::vector<int> batch_inputs(int n, std::uint32_t instance) {
  std::vector<int> in(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    in[static_cast<std::size_t>(j)] =
        static_cast<int>((instance + static_cast<std::uint32_t>(j)) % 2);
  }
  return in;
}

std::uint64_t first_seed(std::uint64_t seed) { return seed << 20; }

// ----------------------------------------------------------------------
// Layer attribution over all Metrics::kTypeSlots MsgType slots
// ----------------------------------------------------------------------

enum Layer : std::size_t { kMwsvss, kSvss, kCoin, kAba, kOther, kLayers };

Layer layer_of_group(std::string_view g) {
  if (g == "mw-rb" || g == "mw-direct") return kMwsvss;
  if (g == "svss-deal" || g == "svss-gset") return kSvss;
  if (g == "coin") return kCoin;
  if (g == "aba") return kAba;
  return kOther;
}

const std::array<Layer, Metrics::kTypeSlots>& layer_table() {
  static const auto table = [] {
    std::array<Layer, Metrics::kTypeSlots> out{};
    for (std::size_t s = 0; s < out.size(); ++s) {
      bool batched = false;
      out[s] = layer_of_group(
          Metrics::type_group(static_cast<MsgType>(s), &batched));
    }
    return out;
  }();
  return table;
}

Layer layer_of(const Packet& p) {
  auto slot = static_cast<std::size_t>(p.is_rb ? p.bid.slot : p.app.type);
  return slot < Metrics::kTypeSlots ? layer_table()[slot] : kOther;
}

// Every slot has a traffic group (layer_table covers all of them, "catchup"
// included), so the per-layer sums equal the run totals exactly when every
// metered packet and byte landed in some slot.
bool slots_cover_totals(const Metrics& m) {
  std::uint64_t pkts = 0;
  std::uint64_t bytes = 0;
  for (std::size_t s = 0; s < Metrics::kTypeSlots; ++s) {
    pkts += m.packets_by_type[s];
    bytes += m.bytes_by_type[s];
  }
  return pkts == m.packets_sent && bytes == m.bytes_sent;
}

// ----------------------------------------------------------------------
// Peak RSS of one batch
// ----------------------------------------------------------------------

double status_mb(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

// Returns freed heap to the kernel and resets the kernel's high-water mark
// to the current resident size, which it returns.  A batch's peak is then
// status_mb("VmHWM:") minus this: what the protocol stack itself held at
// its peak, free of the benchmark's own growing sample storage.
double reset_peak_rss_mb() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return status_mb("VmRSS:");
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ----------------------------------------------------------------------
// Delivery probes (simulator only: the engine's observer is the seam)
// ----------------------------------------------------------------------

// Something installed on each batch's Runner before it runs.
class Probe {
 public:
  virtual ~Probe() = default;
  virtual void attach(Runner& r) = 0;
  virtual void close_batch() {}
};

// Charges the wall time from one delivery stamp to the next to the layer of
// the packet delivered at the first stamp: its whole up-call cascade plus
// the engine's pick of the next packet.
class LayerTrace final : public Probe {
 public:
  void attach(Runner& r) override {
    runner_ = &r;
    honest_ = r.honest_ids();
    r.engine().set_delivery_observer(
        [this](const PendingInfo&, const Packet& p) { on_delivery(p); });
  }

  // Charges the interval after the batch's last delivery.
  void close_batch() override {
    if (open_) charge(Clock::now());
    open_ = false;
  }

  std::array<double, kLayers> busy_s{};
  std::array<std::uint64_t, kLayers> deliveries{};
  double rb_busy_s = 0;
  double total_busy_s = 0;
  std::uint64_t in_flight_peak = 0;
  std::uint64_t dmm_buffered_peak = 0;

 private:
  void on_delivery(const Packet& p) {
    Clock::time_point now = Clock::now();
    if (open_) charge(now);
    last_ = now;
    open_ = true;
    layer_ = layer_of(p);
    rb_ = p.is_rb;
    ++deliveries[layer_];
    const Metrics& m = runner_->engine().metrics();
    in_flight_peak =
        std::max(in_flight_peak, m.packets_sent - m.packets_delivered);
    if ((++seen_ & 31) == 0) {
      std::uint64_t buffered = 0;
      for (int i : honest_) {
        buffered += runner_->node(i).dmm().buffered_messages();
      }
      dmm_buffered_peak = std::max(dmm_buffered_peak, buffered);
    }
  }

  void charge(Clock::time_point now) {
    double d = seconds_between(last_, now);
    busy_s[layer_] += d;
    total_busy_s += d;
    if (rb_) rb_busy_s += d;
  }

  Runner* runner_ = nullptr;
  std::vector<int> honest_;
  bool open_ = false;
  Layer layer_ = kOther;
  bool rb_ = false;
  Clock::time_point last_;
  std::uint64_t seen_ = 0;
};

bool same_packet(const Packet& a, const Packet& b) {
  if (a.is_rb != b.is_rb) return false;
  if (!a.is_rb) return a.app == b.app;
  return a.bid == b.bid && a.phase == b.phase &&
         a.rb_payload() == b.rb_payload();
}

// Frames every delivered packet with the socket codec, decodes it back and
// compares: the bytes the socket would write for the same run, and the
// codec's cost per packet.
class CodecCheck final : public Probe {
 public:
  void attach(Runner& r) override {
    r.engine().set_delivery_observer(
        [this](const PendingInfo&, const Packet& p) { on_delivery(p); });
  }

  std::uint64_t frame_bytes = 0;
  std::uint64_t pkts = 0;
  std::uint64_t mismatches = 0;
  double encode_s = 0;
  double decode_s = 0;

 private:
  void on_delivery(const Packet& p) {
    frame_.clear();
    Clock::time_point e0 = Clock::now();
    net::append_packet_frame(frame_, p);
    Clock::time_point e1 = Clock::now();
    decoder_.feed(frame_.data(), frame_.size());
    std::optional<net::Frame> f = decoder_.next();
    Clock::time_point d0 = Clock::now();
    std::optional<Packet> back =
        f ? net::decode_packet(*f) : std::optional<Packet>{};
    Clock::time_point d1 = Clock::now();
    if (!back || !same_packet(*back, p)) ++mismatches;
    ++pkts;
    frame_bytes += frame_.size();
    encode_s += seconds_between(e0, e1);
    decode_s += seconds_between(d0, d1);
  }

  Bytes frame_;
  net::FrameDecoder decoder_;
};

// ----------------------------------------------------------------------
// One batch
// ----------------------------------------------------------------------

struct Stamp {
  std::uint32_t instance;
  int value;
  std::uint32_t round;
  Clock::time_point at;
};

struct Batch {
  std::uint64_t seed = 0;
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  std::uint32_t attempted = 0;
  std::uint32_t decided = 0;  // decided by every honest node, batch not cut
  int honest = 0;
  std::uint64_t decide_rounds = 0;  // summed over observed decisions
  std::uint64_t decisions_seen = 0;
  Metrics metrics;
  // Post-run lookups, summed over honest nodes.
  std::uint64_t coin_sessions = 0;
  std::uint64_t rounds_past_decision = 0;
  std::uint64_t rbc_instances = 0;
  std::uint64_t dmm_detected = 0;
  std::uint64_t dmm_expectations = 0;
  std::vector<std::string> problems;
};

using NodeGetter = std::function<Node&(int)>;

// Scores one finished batch: decisions, agreement, latency samples, and the
// observer-vs-session cross-check.  `values` is MultiAbaResult::values on
// the simulator (nullptr on sockets, which have no Runner result).
void score(Batch& b, const Workload& w, const std::vector<int>& honest,
           const NodeGetter& node,
           const std::vector<std::vector<Stamp>>& stamps,
           Clock::time_point submit, Clock::time_point end, bool cut_short,
           const std::map<std::uint32_t, int>* values,
           std::vector<double>& latency_ms) {
  b.attempted = w.k;
  b.honest = static_cast<int>(honest.size());
  double censored_ms = 1e3 * seconds_between(submit, end);
  for (std::uint32_t inst = 0; inst < w.k; ++inst) {
    std::optional<int> agreed;
    bool all = true;
    for (int i : honest) {
      const AbaSession* a = node(i).aba(inst);
      std::optional<int> session;
      if (a != nullptr && a->decided()) session = a->decision();
      const Stamp* first = nullptr;
      for (const Stamp& s : stamps[static_cast<std::size_t>(i)]) {
        if (s.instance == inst) {
          first = &s;
          break;
        }
      }
      // An undecided pair stays in the sample, censored at the batch end.
      double ms = censored_ms;
      if (first != nullptr) {
        ms = 1e3 * seconds_between(submit, first->at);
        b.decide_rounds += first->round;
        ++b.decisions_seen;
      }
      latency_ms.push_back(ms);
      if ((first != nullptr) != session.has_value() ||
          (first != nullptr && first->value != *session)) {
        b.problems.push_back("observer/session decision mismatch at node " +
                             std::to_string(i) + " instance " +
                             std::to_string(inst));
      }
      if (!session) {
        all = false;
        continue;
      }
      if (agreed && *agreed != *session) {
        b.problems.push_back("AGREEMENT VIOLATED on instance " +
                             std::to_string(inst));
      }
      agreed = session;
    }
    if (values != nullptr) {
      auto it = values->find(inst);
      bool listed = it != values->end();
      if (listed != all || (listed && it->second != *agreed)) {
        b.problems.push_back("MultiAbaResult::values disagrees on instance " +
                             std::to_string(inst));
      }
    }
    if (all && !cut_short) ++b.decided;
  }
  if (!slots_cover_totals(b.metrics)) {
    b.problems.push_back("per-type packet/byte sums differ from run totals");
  }
  // Coin rounds are created on first contact, so a slow node may hold
  // sessions up to the fastest node's round.
  std::vector<std::uint32_t> last_round(w.k, 0);
  for (int i : honest) {
    for (std::uint32_t inst = 0; inst < w.k; ++inst) {
      if (const AbaSession* a = node(i).aba(inst)) {
        last_round[inst] = std::max(last_round[inst], a->current_round() + 1);
      }
    }
  }
  for (int i : honest) {
    Node& nd = node(i);
    for (std::uint32_t inst = 0; inst < w.k; ++inst) {
      const AbaSession* a = nd.aba(inst);
      if (a != nullptr && a->decided()) {
        b.rounds_past_decision += a->current_round() - a->decision_round();
      }
      for (std::uint32_t r = 1; r <= last_round[inst]; ++r) {
        if (nd.find_coin(inst, r) != nullptr) ++b.coin_sessions;
      }
    }
    b.rbc_instances += nd.rbc().instance_count();
    b.dmm_detected += nd.dmm().detected().size();
    for (int j = 0; j < w.n; ++j) {
      b.dmm_expectations += nd.dmm().pending_expectations(j);
    }
  }
}

void decision_observer(Node& nd, std::vector<Stamp>& out) {
  nd.observers.aba_decided = [&out](Context&, int value, std::uint32_t round,
                                    std::uint32_t instance) {
    out.push_back(Stamp{instance, value, round, Clock::now()});
  };
}

Batch run_sim_batch(const Workload& w, std::uint64_t seed, Probe* probe,
                    std::vector<double>& latency_ms) {
  Batch b;
  b.seed = seed;
  double rss0 = reset_peak_rss_mb();
  RunnerConfig cfg;
  cfg.n = w.n;
  cfg.t = w.t;
  cfg.seed = seed;
  cfg.scheduler = SchedulerKind::kRandom;
  cfg.max_deliveries = kMaxDeliveries;
  cfg.warn_on_cap = false;
  if (w.wrong_recon_slot >= 0) {
    cfg.faults[w.wrong_recon_slot] = ByzConfig{ByzKind::kWrongRecon};
  }
  Clock::time_point t0 = Clock::now();
  Runner r(cfg);
  b.setup_s = seconds_between(t0, Clock::now());

  std::vector<int> honest = r.honest_ids();
  std::vector<std::vector<Stamp>> stamps(static_cast<std::size_t>(w.n));
  for (int i : honest) decision_observer(r.node(i), stamps[static_cast<std::size_t>(i)]);
  if (probe != nullptr) probe->attach(r);
  for (std::uint32_t inst = 0; inst < w.k; ++inst) {
    r.submit(inst, batch_inputs(w.n, inst));
  }
  double cpu0 = process_cpu_s();
  Clock::time_point submit = Clock::now();
  Runner::MultiAbaResult res = r.run_submitted(w.mode);
  Clock::time_point end = Clock::now();
  b.cpu_s = process_cpu_s() - cpu0;
  if (probe != nullptr) probe->close_batch();
  b.run_s = seconds_between(submit, end);
  b.peak_rss_mb = status_mb("VmHWM:") - rss0;
  b.metrics = res.metrics;
  score(b, w, honest, [&r](int i) -> Node& { return r.node(i); },
        stamps, submit, end, res.status == RunStatus::kDeliveryCap,
        &res.values, latency_ms);
  return b;
}

// Mirrors Runner::run_submitted_loopback, but drives LoopbackCluster
// directly so decisions can be stamped.  Each slot's stamps are written
// only by that slot's worker thread and read after run() has joined them.
Batch run_socket_batch(const Workload& w, std::uint64_t seed,
                       std::vector<double>& latency_ms) {
  Batch b;
  b.seed = seed;
  double rss0 = reset_peak_rss_mb();
  LoopbackOptions opts;
  opts.n = w.n;
  opts.t = w.t;
  opts.seed = seed;
  opts.timeout_ms = kSocketTimeoutMs;
  Clock::time_point t0 = Clock::now();
  LoopbackCluster cluster(opts);
  b.setup_s = seconds_between(t0, Clock::now());

  std::vector<int> honest;
  for (int i = 0; i < w.n; ++i) honest.push_back(i);
  std::vector<std::vector<Stamp>> stamps(static_cast<std::size_t>(w.n));
  std::uint64_t coin_seed = seed ^ 0xC01Full;
  for (int i = 0; i < w.n; ++i) {
    decision_observer(cluster.node(i), stamps[static_cast<std::size_t>(i)]);
    std::vector<std::pair<std::uint32_t, int>> starts;
    for (std::uint32_t inst = 0; inst < w.k; ++inst) {
      starts.emplace_back(inst, batch_inputs(w.n, inst)[static_cast<std::size_t>(i)]);
    }
    CoinMode mode = w.mode;
    cluster.node(i).set_start_action(
        [starts, mode, coin_seed](Context& c, Node& nd) {
          for (const auto& [inst, input] : starts) {
            nd.start_aba(c, input, mode, coin_seed, inst);
          }
        });
  }
  std::uint32_t k = w.k;
  double cpu0 = process_cpu_s();
  Clock::time_point submit = Clock::now();
  bool finished = cluster.run(
      [k](const Node& nd) {
        for (std::uint32_t inst = 0; inst < k; ++inst) {
          const AbaSession* a = nd.aba(inst);
          if (a == nullptr || !a->decided()) return false;
        }
        return true;
      },
      [](int) { return true; });
  Clock::time_point end = Clock::now();
  b.cpu_s = process_cpu_s() - cpu0;
  b.run_s = seconds_between(submit, end);
  b.peak_rss_mb = status_mb("VmHWM:") - rss0;
  b.metrics = cluster.merged_metrics();
  score(b, w, honest, [&cluster](int i) -> Node& { return cluster.node(i); },
        stamps, submit, end, !finished, nullptr, latency_ms);
  return b;
}

struct Phase {
  std::vector<Batch> batches;
  std::vector<double> latency_ms;  // every batch's samples, pooled
};

// Closed loop: batches back to back over consecutive seeds from `seed`
// until `seconds` have passed (at least one batch).  The phase's storage is
// reserved up front: grown batch by batch, it fragmented the heap the
// measured stack allocates from, and set-up time rose with run length.
Phase run_phase(const Workload& w, std::uint64_t seed, double seconds,
                Probe* probe) {
  Phase out;
  out.batches.reserve(1 << 14);
  out.latency_ms.reserve(1 << 22);
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (out.batches.empty() || Clock::now() < deadline) {
    out.batches.push_back(
        w.socket ? run_socket_batch(w, seed, out.latency_ms)
                 : run_sim_batch(w, seed, probe, out.latency_ms));
    ++seed;
  }
  return out;
}

// ----------------------------------------------------------------------
// Aggregation and output
// ----------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Totals {
  std::uint64_t batches = 0;
  std::uint64_t attempted = 0;
  std::uint64_t decided = 0;
  std::uint64_t decisions_seen = 0;
  std::uint64_t decide_rounds = 0;
  std::uint64_t node_decisions = 0;  // decided instances x honest nodes
  double run_s = 0;
  double cpu_s = 0;
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;
  Metrics metrics;
  std::uint64_t depth = 0;
  std::uint64_t coin_sessions = 0;
  std::uint64_t rounds_past_decision = 0;
  std::uint64_t rbc_instances = 0;
  std::uint64_t dmm_detected = 0;
  std::uint64_t dmm_expectations = 0;
};

Totals total(const std::vector<Batch>& batches, std::size_t count) {
  Totals t;
  for (std::size_t i = 0; i < count; ++i) {
    const Batch& b = batches[i];
    ++t.batches;
    t.attempted += b.attempted;
    t.decided += b.decided;
    t.decisions_seen += b.decisions_seen;
    t.decide_rounds += b.decide_rounds;
    t.node_decisions += static_cast<std::uint64_t>(b.honest) * b.decided;
    t.run_s += b.run_s;
    t.cpu_s += b.cpu_s;
    t.setup_s.push_back(b.setup_s);
    t.peak_rss_mb.push_back(b.peak_rss_mb);
    t.metrics.merge(b.metrics);
    t.depth += b.metrics.max_depth;
    t.coin_sessions += b.coin_sessions;
    t.rounds_past_decision += b.rounds_past_decision;
    t.rbc_instances += b.rbc_instances;
    t.dmm_detected += b.dmm_detected;
    t.dmm_expectations += b.dmm_expectations;
  }
  return t;
}

std::uint64_t layer_count(const std::array<std::uint64_t, Metrics::kTypeSlots>& by_type,
                          Layer layer) {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < Metrics::kTypeSlots; ++s) {
    if (layer_table()[s] == layer) sum += by_type[s];
  }
  return sum;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> end_to_end(const Totals& t,
                               const std::vector<double>& latency_ms) {
  double d = static_cast<double>(t.decided);
  return {
      {"decisions_per_s", ratio(d, t.run_s), "1/s"},
      {"decide_ms_mean",
       ratio(std::accumulate(latency_ms.begin(), latency_ms.end(), 0.0),
             static_cast<double>(latency_ms.size())),
       "ms"},
      {"decide_ms_p90", quantile(latency_ms, 0.90), "ms"},
      {"decide_rounds_mean",
       ratio(static_cast<double>(t.decide_rounds),
             static_cast<double>(t.decisions_seen)),
       "rounds"},
      {"msgs_per_decision", ratio(static_cast<double>(t.metrics.packets_sent), d),
       "count"},
      {"bytes_per_decision", ratio(static_cast<double>(t.metrics.bytes_sent), d),
       "B"},
      {"peak_rss_mb", quantile(t.peak_rss_mb, 0.5), "MB"},
      {"setup_s", quantile(t.setup_s, 0.5), "s"},
      {"decided_frac",
       ratio(d, static_cast<double>(t.attempted)), "frac"},
  };
}

// `traced` supplies the counts (on sockets, which have no delivery seam,
// it is the untraced run and the span and codec metrics read 0).
std::vector<Metric> per_layer(const Workload& w, const Totals& plain,
                              const Totals& traced, const LayerTrace& tr,
                              const Totals& checked, const CodecCheck& codec,
                              double overhead_frac) {
  double d = static_cast<double>(traced.decided);
  const Metrics& m = traced.metrics;
  auto pkts = [&m](Layer l) {
    return static_cast<double>(layer_count(m.packets_by_type, l));
  };
  auto bytes = [&m](Layer l) {
    return static_cast<double>(layer_count(m.bytes_by_type, l));
  };
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  double node_d = u(traced.node_decisions);
  int threads = w.socket ? w.n : 1;
  return {
      {"sim.deliveries_per_decision", ratio(u(m.packets_delivered), d), "count"},
      {"sim.ns_per_delivery",
       ratio(1e9 * plain.run_s, u(plain.metrics.packets_delivered)), "ns"},
      {"sim.in_flight_peak", u(tr.in_flight_peak), "count"},
      {"sim.async_depth", ratio(u(traced.depth), u(traced.batches)), "rounds"},
      {"rbc.transport_pkts_per_decision", ratio(u(m.rb_transport_packets), d),
       "count"},
      {"rbc.instances_per_decision", ratio(u(traced.rbc_instances), node_d),
       "count"},
      {"rbc.busy_frac", ratio(tr.rb_busy_s, tr.total_busy_s), "frac"},
      {"dmm.buffered_peak", u(tr.dmm_buffered_peak), "count"},
      {"dmm.detected", ratio(u(traced.dmm_detected), u(traced.batches)), "count"},
      {"dmm.expectations_end",
       ratio(u(traced.dmm_expectations), u(traced.batches)), "count"},
      {"mwsvss.pkts_per_decision", ratio(pkts(kMwsvss), d), "count"},
      {"mwsvss.bytes_per_decision", ratio(bytes(kMwsvss), d), "B"},
      {"mwsvss.busy_s", tr.busy_s[kMwsvss], "s"},
      {"mwsvss.ns_per_delivery",
       ratio(1e9 * tr.busy_s[kMwsvss], u(tr.deliveries[kMwsvss])), "ns"},
      {"svss.pkts_per_decision", ratio(pkts(kSvss), d), "count"},
      {"svss.bytes_per_decision", ratio(bytes(kSvss), d), "B"},
      {"svss.busy_s", tr.busy_s[kSvss], "s"},
      {"coin.rounds_per_decision", ratio(u(traced.coin_sessions), node_d),
       "count"},
      {"coin.pkts_per_decision", ratio(pkts(kCoin), d), "count"},
      {"coin.busy_s", tr.busy_s[kCoin], "s"},
      {"aba.rounds_past_decision",
       ratio(u(traced.rounds_past_decision), u(traced.decisions_seen)),
       "rounds"},
      {"aba.pkts_per_decision", ratio(pkts(kAba), d), "count"},
      {"aba.bytes_per_decision", ratio(bytes(kAba), d), "B"},
      {"aba.busy_s", tr.busy_s[kAba], "s"},
      {"aba.decisions", u(traced.decisions_seen), "count"},
      {"net.frame_bytes_per_decision",
       ratio(u(codec.frame_bytes), u(checked.decided)), "B"},
      {"net.encode_ns_per_pkt", ratio(1e9 * codec.encode_s, u(codec.pkts)), "ns"},
      {"net.decode_ns_per_pkt", ratio(1e9 * codec.decode_s, u(codec.pkts)), "ns"},
      {"net.cpu_util", ratio(plain.cpu_s, plain.run_s * threads), "frac"},
      {"net.shed_frames", u(m.out_dropped_frames), "count"},
      {"trace.overhead_frac", overhead_frac, "frac"},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Count metrics that are a pure function of the seed on the simulator.
bool same_counts(const Batch& a, const Batch& b) {
  return a.metrics.packets_sent == b.metrics.packets_sent &&
         a.metrics.bytes_sent == b.metrics.bytes_sent &&
         a.metrics.packets_delivered == b.metrics.packets_delivered &&
         a.coin_sessions == b.coin_sessions &&
         a.rounds_past_decision == b.rounds_past_decision &&
         a.decided == b.decided;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      std::string_view v = val;
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (argc % 2 == 0 || !have_workload || !(a.seconds > 0)) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = parse(argc, argv);
  const Workload* w = nullptr;
  if (args) {
    for (const Workload& cand : kWorkloads) {
      if (args->workload == cand.name) w = &cand;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr,
                 "usage: agreement_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\nworkloads:");
    for (const Workload& cand : kWorkloads) std::fprintf(stderr, " %s", cand.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  std::uint64_t seed = first_seed(args->seed);
  Phase plain;
  Phase traced;
  Phase checked;
  LayerTrace trace;
  CodecCheck codec;
  if (!args->trace || w->socket) {
    plain = run_phase(*w, seed, args->seconds, nullptr);
  } else {
    // The same seeds three times: untraced (the reference for the trace's
    // overhead), traced, and with the codec cross-check.  Simulator counts
    // must come out identical in all three.
    plain = run_phase(*w, seed, args->seconds / 3, nullptr);
    traced = run_phase(*w, seed, args->seconds / 3, &trace);
    checked = run_phase(*w, seed, args->seconds / 3, &codec);
  }

  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* phase : {&plain, &traced, &checked}) {
    for (const Batch& b : phase->batches) {
      attempted += b.attempted;
      failed += b.attempted - b.decided;
      for (const std::string& p : b.problems) {
        problems.push_back("seed " + std::to_string(b.seed) + ": " + p);
      }
      std::uint64_t idx = b.seed - seed;
      if (phase != &plain && idx < plain.batches.size() &&
          !same_counts(plain.batches[idx], b)) {
        problems.push_back("seed " + std::to_string(b.seed) +
                           ": simulator counts differ between two runs");
      }
    }
  }
  if (codec.mismatches != 0) {
    problems.push_back(std::to_string(codec.mismatches) +
                       " packets failed the codec round trip");
  }

  Totals p = total(plain.batches, plain.batches.size());
  std::vector<Metric> metrics;
  if (!args->trace) {
    metrics = end_to_end(p, plain.latency_ms);
  } else if (w->socket) {
    metrics = per_layer(*w, p, p, trace, p, codec, 0);
  } else {
    std::size_t common = std::min(plain.batches.size(), traced.batches.size());
    double overhead = ratio(total(traced.batches, common).run_s,
                            total(plain.batches, common).run_s) -
                      1;
    metrics = per_layer(*w, p, total(traced.batches, traced.batches.size()),
                        trace, total(checked.batches, checked.batches.size()),
                        codec, overhead);
  }

  std::printf("%s: seeds %llu..%llu, %llu batches x %u instances, %zu "
              "decide-latency samples, %llu failed\n",
              w->name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed + p.batches - 1),
              static_cast<unsigned long long>(p.batches), w->k,
              plain.latency_ms.size(),
              static_cast<unsigned long long>(failed));
  for (const std::string& prob : problems) {
    std::fprintf(stderr, "agreement_bench: %s\n", prob.c_str());
  }
  print_result(problems.empty(), attempted, failed, metrics);
  return problems.empty() ? 0 : 1;
}

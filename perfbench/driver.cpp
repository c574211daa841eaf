// ihc_perfbench - end-to-end benchmark driver over the public library API.
//
//   ihc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-dir <dir>]
//
// Runs one workload (perfbench/README.md says why each exists) and prints,
// as its last stdout line, one JSON object
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  The line before it is a run record: host noise, cold and
// warm samples, the result digest.  The driver measures from outside the
// library only: timers around public entry points, NetStats,
// RecoveryReport, and the ihc-profile-v1 document of an installed
// WallProfiler.
//
// Cold versus warm.  The library memoizes Hamiltonian decompositions and
// re-rooted survivor plans process-wide and cannot clear them, so every
// cold measurement runs in a forked child: the setup samples (setup_s),
// forked before this process builds anything, and every
// q8_dead_node_recovery operation, forked before any recovery ran.  The
// broadcasts of the other workloads run back to back in this process;
// all but the first are warm and the run record reports them apart.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ihc.hpp"
#include "core/retransmit.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/profiler.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/routing.hpp"
#include "topology/hypercube.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace ihc;
using obs::prof::now_ns;

// --- host clocks and counters ---------------------------------------------

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double rusage_cpu(const rusage& ru) {
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Host-wide steal seconds so far (8th field of /proc/stat's cpu line).
double steal_now() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  in >> cpu;
  for (auto& v : f) in >> v;
  return static_cast<double>(f[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double rss_now_mb() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CPUs this process may run on (what `nproc` prints).
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Runs `body` in a forked child that sends back one plain-data value
/// through a pipe.  Returns nullopt when the child failed; `ru` receives
/// the child's resource usage.
template <typename T, typename Body>
std::optional<T> in_child(Body&& body, rusage* ru = nullptr) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    try {
      const T value = body();
      const ssize_t wrote = write(fds[1], &value, sizeof(value));
      _exit(wrote == static_cast<ssize_t>(sizeof(value)) ? 0 : 1);
    } catch (...) {
      _exit(1);  // the parent counts the operation as failed
    }
  }
  close(fds[1]);
  T value{};
  const ssize_t got = pid > 0 ? read(fds[0], &value, sizeof(value)) : -1;
  close(fds[0]);
  if (pid <= 0) return std::nullopt;
  int status = 0;
  rusage usage{};
  wait4(pid, &status, 0, &usage);
  if (ru != nullptr) *ru = usage;
  if (got != static_cast<ssize_t>(sizeof(value)) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    return std::nullopt;
  return value;
}

// --- result digest ----------------------------------------------------------

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Digest of a simulated result: the finish time, every NetStats counter
/// the engines agree on, and each pair's ledger copy counts.
/// events_processed is engine bookkeeping (the sequential and sharded
/// engines count sentinels differently) and link_busy_time is a float
/// sum, so neither is part of the result.
std::uint64_t digest(SimTime finish, const NetStats& s,
                     const DeliveryLedger& ledger) {
  Fnv f;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(finish), s.injections, s.cut_throughs,
        s.buffered_relays, s.wormhole_stalls, s.redirects, s.fault_drops,
        s.fault_corruptions, s.link_drops, s.background_packets,
        s.deliveries, static_cast<std::uint64_t>(s.total_queue_wait),
        static_cast<std::uint64_t>(s.finish_time),
        std::uint64_t{s.max_node_buffer_occupancy}})
    f.add(v);
  const NodeId n = ledger.node_count();
  for (NodeId o = 0; o < n; ++o)
    for (NodeId d = 0; d < n; ++d)
      f.add(std::uint64_t{ledger.copies(o, d)} << 16 |
            ledger.intact_copies(o, d));
  return f.h;
}

/// Pinned digest of the clean Q_10 broadcast (eta = 2, alpha = 20 ns,
/// tau_S = 5 us, mu = 2).  Both Q_10 workloads must reproduce it: the
/// sharded engine's results are byte-identical to the sequential one's.
constexpr std::uint64_t kQ10Digest = 6009847472626771153ULL;

// --- workloads --------------------------------------------------------------

enum class Kind { kQ10, kQ10Shards2, kQ6Background, kQ8Recovery };

struct Workload {
  const char* name;
  Kind kind;
  unsigned dimension;
};

constexpr Workload kWorkloads[] = {
    {"q10_ihc", Kind::kQ10, 10},
    {"q10_ihc_shards2", Kind::kQ10Shards2, 10},
    {"q6_multihop_bg", Kind::kQ6Background, 6},
    {"q8_dead_node_recovery", Kind::kQ8Recovery, 8},
};

/// Background seeds per q6_multihop_bg pool.  Operation i runs the pool's
/// (i mod kPoolSize)-th seed, so a run passes over the pool several times
/// and every repeat must reproduce the first pass's digest.
constexpr std::uint64_t kPoolSize = 64;
/// Cold setup samples per run; setup_s is their median.
constexpr int kSetupSamples = 31;
/// Broadcasts of the held-out pool in a traced q6_multihop_bg run.
constexpr std::size_t kHeldOutOps = 16;

/// Everything a user's process builds before its first broadcast.
struct Inputs {
  std::unique_ptr<Hypercube> cube;
  std::unique_ptr<RoutingTable> routes;     // q6_multihop_bg only
  std::unique_ptr<FaultSchedule> schedule;  // q8_dead_node_recovery only
  NodeId victim = 0;
};

/// Host nanoseconds at the boundaries of one input build.
struct SetupStamps {
  std::uint64_t start = 0, topology = 0, decompose = 0, routing = 0, end = 0;
  [[nodiscard]] double total_s() const { return seconds(end - start); }
};

NodeId victim_for(std::uint64_t seed) {
  return static_cast<NodeId>(
      derive_seed("perfbench.q8_dead_node_recovery", std::to_string(seed)) %
      256);
}

Inputs build_inputs(const Workload& w, std::uint64_t seed, SetupStamps& t) {
  Inputs in;
  t.start = now_ns();
  in.cube = std::make_unique<Hypercube>(w.dimension);
  t.topology = now_ns();
  (void)in.cube->directed_cycles();
  t.decompose = now_ns();
  if (w.kind == Kind::kQ6Background)
    in.routes = std::make_unique<RoutingTable>(in.cube->graph());
  t.routing = now_ns();
  if (w.kind == Kind::kQ8Recovery) {
    // The event of examples/q4_dead_node.fault.json on a seed-picked node.
    in.victim = victim_for(seed);
    in.schedule = std::make_unique<FaultSchedule>(
        derive_seed("perfbench.schedule", std::to_string(seed)));
    in.schedule->fault_node(in.victim, FaultMode::kSilent, sim_ps(2500000));
  }
  t.end = now_ns();
  return in;
}

/// The options `ihc_cli run` would build for the workload.
AtaOptions base_options(const Workload& w, const Inputs& in) {
  AtaOptions opt;
  opt.net.alpha = sim_ns(20);
  opt.net.mu = 2;
  opt.net.tau_s = sim_us(5);
  opt.net.shards = w.kind == Kind::kQ10Shards2 ? 2 : 0;
  if (w.kind == Kind::kQ6Background) {
    opt.net.tau_s = sim_ns(200);
    opt.net.rho = 0.2;
    opt.net.background_mode = BackgroundMode::kMultiHopFlows;
    opt.net.background_mu = 8;
    opt.routes = in.routes.get();
  }
  opt.schedule = in.schedule.get();
  return opt;
}

/// Cold input builds, each in a child forked before this process built
/// anything, so the decomposition memo is empty in every one.
std::vector<SetupStamps> cold_setups(const Workload& w, std::uint64_t seed) {
  std::vector<SetupStamps> out;
  for (int s = 0; s < kSetupSamples; ++s) {
    const auto t = in_child<SetupStamps>([&] {
      SetupStamps stamps;
      (void)build_inputs(w, seed, stamps);
      return stamps;
    });
    if (t) out.push_back(*t);
  }
  return out;
}

// --- operations -------------------------------------------------------------

/// One operation's outcome.  Plain data: a forked child sends it back
/// through a pipe.
struct OpResult {
  std::uint64_t call_start_ns = 0;  ///< around the library call
  std::uint64_t call_end_ns = 0;
  double wall_s = 0;  ///< what the user waits for the operation
  double cpu_s = 0;
  double rss_mb = 0;  ///< peak RSS of the process that ran it
  std::uint64_t digest = 0;
  bool ok = false;
  std::uint64_t events = 0;
  std::uint64_t background_packets = 0;
  std::uint64_t buffered_relays = 0;
  // Recovery only.
  double event_loop_s = 0;  ///< profile event_loop phase (traced only)
  std::uint64_t engine_runs = 0;
  std::uint64_t fallback_paths = 0;
  std::uint64_t escalations = 0;
};

struct Profiling {
  obs::prof::WallProfiler profiler;
  obs::MetricsRegistry metrics;
};

const Json& phase_row(const Json& profile, std::string_view name) {
  for (const Json& row : profile.find("phases")->items())
    if (row.find("name")->as_string() == name) return row;
  throw std::runtime_error("profile has no phase " + std::string(name));
}

/// q8_dead_node_recovery: the full ladder with min_copies = gamma, as
/// `ihc_cli run --recover` runs it, in a child forked before any recovery
/// ran, so it pays the cold re-root memo a user's process pays.
OpResult recovery_op(const Inputs& in, const AtaOptions& base, bool traced) {
  const std::uint64_t t0 = now_ns();
  rusage ru{};
  std::optional<OpResult> r = in_child<OpResult>(
      [&] {
        OpResult res;
        std::optional<Profiling> prof;
        AtaOptions opt = base;
        if (traced) {
          prof.emplace();
          obs::prof::set_global_profiler(&prof->profiler);
          opt.metrics = &prof->metrics;
        }
        RecoveryPolicy policy;
        policy.min_copies = in.cube->gamma();
        policy.ladder = RecoveryLadder::kPaths;
        res.call_start_ns = now_ns();
        const RecoveryReport rep = run_ihc_with_recovery(
            *in.cube, IhcOptions{.eta = 2}, opt, policy);
        res.call_end_ns = now_ns();
        if (traced) {
          obs::prof::set_global_profiler(nullptr);
          const Json& loop = phase_row(prof->profiler.to_json(), "event_loop");
          res.event_loop_s = loop.find("wall_ms")->as_double() / 1000.0;
          res.engine_runs =
              static_cast<std::uint64_t>(loop.find("count")->as_int());
        }
        Fnv f;
        f.add(digest(rep.finish, rep.stats, rep.ledger));
        for (const std::uint64_t v :
             {rep.fallback_paths, rep.flows_reissued, rep.unreachable_pairs,
              std::uint64_t{rep.escalations}, std::uint64_t{rep.retries_used},
              static_cast<std::uint64_t>(rep.recovery_latency)})
          f.add(v);
        res.digest = f.h;
        res.ok = rep.complete && rep.unrecovered_pairs == 0;
        res.events = rep.stats.events_processed;
        res.background_packets = rep.stats.background_packets;
        res.buffered_relays = rep.stats.buffered_relays;
        res.fallback_paths = rep.fallback_paths;
        res.escalations = rep.escalations;
        return res;
      },
      &ru);
  if (!r) return {};
  r->wall_s = seconds(now_ns() - t0);
  r->cpu_s = rusage_cpu(ru);
  r->rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return *r;
}

/// One IHC broadcast in this process (the Q_10 and Q_6 workloads).
OpResult broadcast_op(const Topology& topo, const AtaOptions& opt) {
  OpResult r;
  const double c0 = cpu_now();
  r.call_start_ns = now_ns();
  const AtaResult res = run_ihc(topo, IhcOptions{.eta = 2}, opt);
  r.call_end_ns = now_ns();
  r.cpu_s = cpu_now() - c0;
  r.wall_s = seconds(r.call_end_ns - r.call_start_ns);
  r.rss_mb = peak_rss_mb();
  r.digest = digest(res.finish, res.stats, res.ledger);
  r.ok = res.ledger.all_pairs_have(topo.gamma()) &&
         res.stats.fault_drops == 0 && res.stats.link_drops == 0;
  r.events = res.stats.events_processed;
  r.background_packets = res.stats.background_packets;
  r.buffered_relays = res.stats.buffered_relays;
  return r;
}

/// A benchmark-side span: name, host start/end (ns), the index of the
/// span that caused it (-1 for a root) and its operation (-1 outside one).
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t op = -1;
};

class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed, const Inputs& in)
      : w_(w), seed_(seed), in_(in), base_(base_options(w, in)) {}

  /// Operation i of the workload's stream; traced when `prof` is set.
  OpResult op(std::uint64_t i, Profiling* prof) const {
    if (w_.kind == Kind::kQ8Recovery)
      return recovery_op(in_, base_, prof != nullptr);
    AtaOptions opt = base_;
    if (w_.kind == Kind::kQ6Background)
      opt.net.seed = derive_seed("perfbench.q6_multihop_bg",
                                 std::to_string(seed_), i % kPoolSize);
    if (prof != nullptr) opt.metrics = &prof->metrics;
    return broadcast_op(*in_.cube, opt);
  }

  /// Runs operations from index `first` for about `budget_s` seconds:
  /// another one starts only if it is expected to end closer to the
  /// budget than stopping now.  At least one runs.  With `spans` set,
  /// records an `operation` span (child of span `parent`) and a child
  /// span around the library call for each.
  std::vector<OpResult> measure(double budget_s, std::uint64_t first,
                                Profiling* prof, std::vector<Span>* spans,
                                std::int64_t parent = -1) const {
    std::vector<OpResult> out;
    const std::uint64_t start = now_ns();
    for (std::uint64_t i = first;; ++i) {
      if (!out.empty() &&
          seconds(now_ns() - start) + out.back().wall_s / 2 > budget_s)
        break;
      const std::uint64_t op_start = now_ns();
      out.push_back(op(i, prof));
      if (spans == nullptr) continue;
      const auto op_index = static_cast<std::int64_t>(i);
      spans->push_back({"operation", op_start, now_ns(), parent, op_index});
      const auto op_span = static_cast<std::int64_t>(spans->size() - 1);
      spans->push_back({w_.kind == Kind::kQ8Recovery
                            ? "core.run_ihc_with_recovery"
                            : "core.run_ihc",
                        out.back().call_start_ns, out.back().call_end_ns,
                        op_span, op_index});
    }
    return out;
  }

  /// Counts wrong operations: a failed verdict, a Q_10 digest other than
  /// the pinned one, or a digest other than the one the same input gave
  /// earlier in the run.
  std::uint64_t check(const std::vector<OpResult>& ops, std::uint64_t first) {
    std::uint64_t failed = 0;
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const OpResult& r = ops[k];
      bool good = r.ok;
      if (w_.kind == Kind::kQ10 || w_.kind == Kind::kQ10Shards2) {
        good = good && r.digest == kQ10Digest;
      } else {
        const std::uint64_t key =
            w_.kind == Kind::kQ6Background ? (first + k) % kPoolSize : 0;
        const auto [it, fresh] = seen_.try_emplace(key, r.digest);
        good = good && (fresh || it->second == r.digest);
      }
      if (!good) ++failed;
    }
    return failed;
  }

 private:
  const Workload& w_;
  std::uint64_t seed_;
  const Inputs& in_;
  AtaOptions base_;
  std::map<std::uint64_t, std::uint64_t> seen_;  ///< input key -> digest
};

template <typename Field>
double median_of(const std::vector<OpResult>& ops, Field f) {
  std::vector<double> v;
  for (const OpResult& r : ops) v.push_back(static_cast<double>(f(r)));
  return median(std::move(v));
}

template <typename Field>
double mean_of(const std::vector<OpResult>& ops, Field f) {
  double sum = 0;
  for (const OpResult& r : ops) sum += static_cast<double>(f(r));
  return ops.empty() ? 0.0 : sum / static_cast<double>(ops.size());
}

double max_rss(const std::vector<OpResult>& ops) {
  double peak = 0;
  for (const OpResult& r : ops) peak = std::max(peak, r.rss_mb);
  return peak;
}

/// |alt / base - 1|, the fraction by which a count moved.
double shift(double base, double alt) {
  return base > 0 ? std::fabs(alt / base - 1.0) : 0.0;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    doc_.set(name, std::move(m));
  }
  Json take() { return std::move(doc_); }

 private:
  Json doc_ = Json::object();
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir = ".bench_build/perfbench/traces";
};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: ihc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why.c_str());
  return 2;
}

/// Per-layer metrics of a traced run, per operation of its traced half.
void report_layers(Metrics& m, const Workload& w,
                   const std::vector<SetupStamps>& setups,
                   const std::vector<OpResult>& plain,
                   const std::vector<OpResult>& traced, const Json& profile,
                   double rss_before_mb) {
  auto setup_layer = [&](auto from, auto to) {
    std::vector<double> v;
    for (const SetupStamps& t : setups) v.push_back(seconds(t.*to - t.*from));
    return median(std::move(v));
  };
  m.add("topology.build_s",
        setup_layer(&SetupStamps::start, &SetupStamps::topology), "s");
  m.add("graph.decompose_s",
        setup_layer(&SetupStamps::topology, &SetupStamps::decompose), "s");
  m.add("routing.build_s",
        setup_layer(&SetupStamps::decompose, &SetupStamps::routing), "s");

  const double ops = static_cast<double>(traced.size());
  const bool recovery = w.kind == Kind::kQ8Recovery;
  const double loop_s =
      recovery ? mean_of(traced, [](auto& r) { return r.event_loop_s; })
               : phase_row(profile, "event_loop").find("wall_ms")->as_double() /
                     1000.0 / ops;
  const double events = mean_of(traced, [](auto& r) { return r.events; });
  m.add("sim.run_s", loop_s, "s");
  m.add("sim.events", events, "count");
  m.add("sim.ns_per_event", events > 0 ? loop_s * 1e9 / events : 0.0, "ns");
  m.add("sim.background_packets",
        mean_of(traced, [](auto& r) { return r.background_packets; }),
        "count");
  m.add("sim.buffered_relays",
        mean_of(traced, [](auto& r) { return r.buffered_relays; }), "count");
  m.add("sim.rss_growth_mb", std::max(0.0, max_rss(traced) - rss_before_mb),
        "MB");

  // The profile's shard section; empty on the sequential engine.
  double windows = 0, drain = 0, coord = 0, barrier = 0, busy_max = 0,
         busy_min = 0, shard_events = 0;
  for (const Json& sec : profile.find("shards")->items()) {
    windows += sec.find("windows")->as_double();
    drain += sec.find("mailbox_drain_ms")->as_double();
    coord += sec.find("coordinator_ms")->as_double();
    const Json* imbalance = sec.find("imbalance");
    busy_max += imbalance->find("max_busy_ms")->as_double();
    busy_min += imbalance->find("min_busy_ms")->as_double();
    for (const Json& sh : sec.find("per_shard")->items()) {
      barrier += sh.find("barrier_wait_ms")->as_double();
      shard_events += sh.find("events")->as_double();
    }
  }
  const double per_op_s = 1.0 / 1000.0 / ops;
  m.add("parallel.windows", windows / ops, "count");
  m.add("parallel.events_per_window",
        windows > 0 ? shard_events / windows : 0.0, "count");
  m.add("parallel.mailbox_drain_s", drain * per_op_s, "s");
  m.add("parallel.coordinator_s", coord * per_op_s, "s");
  m.add("parallel.barrier_wait_s", barrier * per_op_s, "s");
  m.add("parallel.busy_max_s", busy_max * per_op_s, "s");
  m.add("parallel.busy_min_s", busy_min * per_op_s, "s");

  const double run_s =
      recovery ? mean_of(traced,
                         [](auto& r) {
                           return seconds(r.call_end_ns - r.call_start_ns);
                         })
               : 0.0;
  const double rec_loop = recovery ? loop_s : 0.0;
  m.add("recovery.run_s", run_s, "s");
  m.add("recovery.event_loop_s", rec_loop, "s");
  m.add("recovery.control_s", run_s - rec_loop, "s");
  m.add("recovery.engine_runs",
        mean_of(traced, [](auto& r) { return r.engine_runs; }), "count");
  m.add("recovery.fallback_paths",
        mean_of(traced, [](auto& r) { return r.fallback_paths; }), "count");
  m.add("recovery.escalations",
        mean_of(traced, [](auto& r) { return r.escalations; }), "count");
  m.add("trace.overhead_s",
        median_of(traced, [](auto& r) { return r.wall_s; }) -
            median_of(plain, [](auto& r) { return r.wall_s; }),
        "s");
}

void write_trace(const std::string& path, const Workload& w,
                 const std::vector<Span>& spans, const Json& profile,
                 const obs::MetricsRegistry& metrics) {
  Json sp = Json::array();
  for (const Span& s : spans) {
    Json j = Json::object();
    j.set("name", s.name);
    j.set("start_ns", s.start_ns);
    j.set("end_ns", s.end_ns);
    j.set("parent", s.parent);
    j.set("op", s.op);
    sp.push(std::move(j));
  }
  Json doc = Json::object();
  doc.set("workload", w.name);
  doc.set("spans", std::move(sp));
  doc.set("profile", profile);
  doc.set("metrics", metrics.to_json());
  std::ofstream(path) << doc.dump(1) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--trace-dir") a.trace_dir = v;
      else return usage("unknown option " + k);
    } catch (const std::exception&) {
      return usage("bad value for " + k);
    }
  }
  const Workload* found = nullptr;
  for (const Workload& c : kWorkloads)
    if (a.workload == c.name) found = &c;
  if (found == nullptr) return usage("unknown workload " + a.workload);
  if (!(a.seconds > 0)) return usage("--seconds must be positive");
  const Workload& w = *found;
  const bool recovery = w.kind == Kind::kQ8Recovery;

  const double steal0 = steal_now();
  const std::uint64_t run_start = now_ns();

  // Cold setup first, while this process has built nothing.
  const std::vector<SetupStamps> setups = cold_setups(w, a.seed);
  if (setups.empty()) return usage("every setup child failed");
  std::vector<double> setup_totals;
  for (const SetupStamps& t : setups) setup_totals.push_back(t.total_s());
  const double setup_s = median(setup_totals);

  // Barrier-coupled shard threads spread over the vCPUs of a shared host
  // wait out the hypervisor's wake-up latency at every window: on a
  // shared 4-vCPU VM, with identical code, the 2-shard median wall time
  // moved 30% between two sets of ten runs as the host's steal rose.  On
  // one CPU the run measures the sharded engine's own cost (drain,
  // coordinator, barrier).
  const int cpus = nproc();
  const int pinned_cpu = w.kind == Kind::kQ10Shards2 ? sched_getcpu() : -1;
  if (pinned_cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(static_cast<std::size_t>(pinned_cpu), &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0)
      return usage("cannot pin the 2-shard run to one CPU");
  }

  SetupStamps own;
  const Inputs in = build_inputs(w, a.seed, own);
  Runner runner(w, a.seed, in);
  const double rss_before = rss_now_mb();

  // An untraced run measures for the whole budget.  A traced run spends
  // half untraced and half traced; the gap between the halves' median
  // operation times is the tracing overhead.
  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  const std::vector<OpResult> plain = runner.measure(budget, 0, nullptr, nullptr);
  std::uint64_t failed = runner.check(plain, 0);
  std::uint64_t attempted = plain.size();

  Json record = Json::object();
  record.set("workload", w.name);
  record.set("seed", a.seed);
  if (recovery) record.set("victim", std::int64_t{in.victim});
  record.set("digest", plain.front().digest);
  record.set("setup_cold_samples", static_cast<std::int64_t>(setups.size()));
  Json walls = Json::array();
  for (const OpResult& r : plain) walls.push(r.wall_s);
  record.set("op_wall_s", std::move(walls));
  if (recovery) {
    record.set("op_cache", "every operation cold (forked child)");
  } else {
    record.set("op_cache", "operation 0 cold, the rest warm");
    record.set("cold_op_wall_s", plain.front().wall_s);
    if (plain.size() > 1)
      record.set("warm_op_wall_s",
                 median_of({plain.begin() + 1, plain.end()},
                           [](auto& r) { return r.wall_s; }));
  }

  Metrics metrics;
  if (!a.trace) {
    metrics.add("wall_s", median_of(plain, [](auto& r) { return r.wall_s; }),
                "s");
    metrics.add("cpu_s", median_of(plain, [](auto& r) { return r.cpu_s; }),
                "s");
    metrics.add("setup_s", setup_s, "s");
    metrics.add("peak_rss_mb", max_rss(plain), "MB");
  } else {
    Profiling prof;
    std::vector<Span> spans;
    // The parent build of the inputs (warm: the cold ones ran in children).
    spans.push_back({"setup", own.start, own.end, -1, -1});
    spans.push_back({"topology.build", own.start, own.topology, 0, -1});
    spans.push_back({"graph.decompose", own.topology, own.decompose, 0, -1});
    spans.push_back({"routing.build", own.decompose, own.routing, 0, -1});
    spans.push_back({"traced_half", now_ns(), 0, -1, -1});
    const auto root = static_cast<std::int64_t>(spans.size() - 1);
    obs::prof::set_global_profiler(&prof.profiler);
    const std::vector<OpResult> traced =
        runner.measure(budget, plain.size(), &prof, &spans, root);
    obs::prof::set_global_profiler(nullptr);
    spans[static_cast<std::size_t>(root)].end_ns = now_ns();
    failed += runner.check(traced, plain.size());
    attempted += traced.size();
    const Json profile = prof.profiler.to_json();
    report_layers(metrics, w, setups, plain, traced, profile, rss_before);

    // Held-out seed: the same workload at a seed the run did not use must
    // do about the same work.
    double events_shift = 0;
    double paths_shift = 0;
    if (w.kind == Kind::kQ6Background) {
      const Runner held(w, derive_seed("perfbench.held_out",
                                       std::to_string(a.seed)),
                        in);
      const std::size_t n = std::min(kHeldOutOps, plain.size());
      double base = 0;
      double alt = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const OpResult r = held.op(i, nullptr);
        failed += r.ok ? 0 : 1;
        ++attempted;
        base += static_cast<double>(plain[i].events);
        alt += static_cast<double>(r.events);
      }
      events_shift = shift(base, alt);
    } else if (recovery) {
      std::uint64_t other = a.seed + 1;
      while (victim_for(other) == in.victim) ++other;
      SetupStamps unused;
      const Inputs held_in = build_inputs(w, other, unused);
      const OpResult r = recovery_op(held_in, base_options(w, held_in), false);
      failed += r.ok ? 0 : 1;
      ++attempted;
      events_shift = shift(static_cast<double>(plain.front().events),
                           static_cast<double>(r.events));
      paths_shift = shift(static_cast<double>(plain.front().fallback_paths),
                          static_cast<double>(r.fallback_paths));
      record.set("held_out_victim", std::int64_t{held_in.victim});
    }
    metrics.add("seed.events_shift", events_shift, "ratio");
    metrics.add("seed.fallback_paths_shift", paths_shift, "ratio");

    // Spans, profile and registry stayed in memory until now.
    std::error_code ec;
    std::filesystem::create_directories(a.trace_dir, ec);
    write_trace(a.trace_dir + "/" + w.name + "-" + std::to_string(a.seed) +
                    ".json",
                w, spans, profile, prof.metrics);
  }

  const double steal_s = steal_now() - steal0;
  const auto hw_threads =
      static_cast<double>(std::thread::hardware_concurrency());
  Json host = Json::object();
  host.set("steal_s", steal_s);
  host.set("hw_threads", hw_threads);
  host.set("nproc", cpus);
  if (pinned_cpu >= 0) host.set("pinned_cpu", pinned_cpu);
  host.set("run_wall_s", seconds(now_ns() - run_start));
  record.set("host", std::move(host));
  if (a.trace) {
    metrics.add("host.steal_s", steal_s, "s");
    metrics.add("host.hw_threads", hw_threads, "count");
    metrics.add("host.nproc", cpus, "count");
  }
  std::printf("%s\n", record.dump(0).c_str());

  Json result = Json::object();
  result.set("correct", failed == 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", metrics.take());
  std::printf("%s\n", result.dump(0).c_str());
  return 0;
}

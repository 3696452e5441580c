// The repository's benchmark: the paper's construction pipeline and the
// self-healing service that runs on top of it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   construct-line   ConstructWellFormedTree on gen::Line(2^15), S=4
//   service-repair   2^16-node ring+3-chords overlay, drip strike of 0.1%
//                    per epoch, RecoveryMode::kRepair, S=4
//   service-rebuild  the same with RecoveryMode::kRebuild
//
// The single-threaded baseline of construct-line (the same problem at S=1)
// is timed in construct-line's traced run, not as a workload of its own: on
// a shared host its wall time swings by up to 2x from run to run, which no
// end-to-end bound could absorb.
//
// An operation is one ConstructWellFormedTree call (construct-*) or one
// service epoch, strike to verified monitors (service-*). A run sets up
// several times, then performs as many operations as fit in --seconds (at
// least one), and checks every operation's output; a failed check counts
// into `failed` and never aborts the run. The last line of stdout is one
// JSON object:
//
//   --trace 0: the end-to-end metrics, timed with tracing off;
//   --trace 1: the per-layer metrics. The run performs the same operations
//     untraced and then traced, with a span around every call into a layer
//     (harness/pipeline.hpp), checks that both produce bit-identical
//     outputs, and reports span self times per operation, the unattributed
//     remainder, and the tracing overhead (traced minus untraced wall time).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/scenario_gen.hpp"
#include "harness/pipeline.hpp"
#include "sim/shard_pool.hpp"

namespace {

using namespace overlay;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A run performs at least one operation and starts another only if one as
/// long as the last still ends within --seconds.
bool HasTimeFor(Clock::time_point run0, double last_op_s, double seconds) {
  return Since(run0) + last_op_s <= seconds;
}

enum class Kind { kConstruct, kService };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t n;
  RecoveryMode recovery;  ///< service workloads only
};

constexpr Workload kWorkloads[] = {
    {"construct-line", Kind::kConstruct, std::size_t{1} << 15,
     RecoveryMode::kRepair},
    {"service-repair", Kind::kService, std::size_t{1} << 16,
     RecoveryMode::kRepair},
    {"service-rebuild", Kind::kService, std::size_t{1} << 16,
     RecoveryMode::kRebuild},
};

/// Every workload runs at S=4, the cores of the host its sizes were chosen
/// on.
constexpr std::size_t kShards = 4;

/// Set-ups per batch. A run times a batch before its operations and another
/// after them (a construct run also before each further construction), and
/// setup_s is the median of all of them: the host's speed drifts within a
/// run, and samples from one moment alone would follow that drift.
constexpr std::size_t kConstructSetups = 15;
constexpr std::size_t kServiceSetups = 3;
/// Epochs per service episode: at least 110, so the nearest-rank p90 has
/// at least ten samples beyond it. A run repeats whole episodes (each from
/// a fresh set-up), so every run samples the same overlay sizes however
/// fast the program is.
constexpr std::size_t kEpisodeEpochs = 120;
/// Latency recorded for a failed operation: it misses every bound.
constexpr double kFailedLatency = DBL_MAX;

// ---- host --------------------------------------------------------------

struct Host {
  std::size_t nproc = 1;
  double l2_bytes = 0;  ///< per core
  double l3_bytes = 0;  ///< per instance
};

Host ReadHost() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.nproc = static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  h.l2_bytes = static_cast<double>(std::max(0L, sysconf(_SC_LEVEL2_CACHE_SIZE)));
  h.l3_bytes = static_cast<double>(std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE)));
  return h;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- statistics --------------------------------------------------------

/// Nearest-rank percentile (the convention bench_service uses).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return kFailedLatency;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[rank];
}

/// Median; the mean of the middle two for an even count.
double Median(std::vector<double> v) {
  if (v.empty()) return kFailedLatency;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// ---- metrics -----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0. Every workload reports every metric; an
/// operation is a construction or a service epoch.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
    {"op_rounds_p50", "rounds"},
    {"peak_rss_mb", "MB"},
};

/// Printed with --trace 1. Times are seconds per operation; a layer the
/// workload never calls reports 0.
constexpr MetricDef kPerLayer[] = {
    {"benign.make_s", "s"},
    {"expander.create_s", "s"},
    {"graph.to_simple_s", "s"},
    {"graph.is_connected_s", "s"},
    {"bfs_tree.build_s", "s"},
    {"wft.contract_s", "s"},
    {"expander.token_steps", "count"},
    {"expander.max_token_load", "count"},
    {"expander.load_bound", "count"},
    {"expander.discard_ratio", "ratio"},
    {"expander.token_steps_per_s", "1/s"},
    {"bfs_tree.rounds", "rounds"},
    {"bfs_tree.messages", "count"},
    {"bfs_tree.arena_bytes", "B"},
    {"bfs_tree.msgs_per_s", "1/s"},
    {"multigraph.bytes", "B-computed"},
    {"adversary.scenario_epoch_s", "s"},
    {"adversary.strike_s", "s"},
    {"churn.extract_s", "s"},
    {"bfs_tree.recover_s", "s"},
    {"adversary.epoch_other_s", "s"},
    {"wft.repair_s", "s"},
    {"wft.validate_s", "s"},
    {"wft.depth_s", "s"},
    {"wft.changed", "count"},
    {"monitoring.remap_s", "s"},
    {"monitoring.incremental_s", "s"},
    {"monitoring.verify_s", "s"},
    {"monitoring.dirty", "count"},
    {"bfs_tree.recovery_rounds", "rounds"},
    {"bfs_tree.recovery_messages", "count"},
    {"rounds.measured", "rounds"},
    {"rounds.charged", "rounds"},
    {"traced_op_s", "s"},
    {"unattributed_s", "s"},
    {"span_coverage", "ratio"},
    {"trace_overhead_s", "s"},
    {"fail_rate", "ratio"},
    {"baseline_s1.construct_s", "s"},
    {"baseline_s1.speedup", "ratio"},
    {"host.nproc", "count"},
    {"host.l2_bytes", "B"},
    {"host.l2_total_bytes", "B"},
    {"host.l3_bytes", "B"},
    {"host.shards", "count"},
    {"host.ws_ratio", "ratio"},
    {"host.unresolved", "flag"},
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// False when a traced output differed from the untraced one.
  bool identical = true;
  std::map<std::string, double> values;
};

void PrintResult(const Outcome& out, bool trace) {
  std::string metrics;
  const auto append = [&](const MetricDef& d) {
    const auto it = out.values.find(d.name);
    const double v = it == out.values.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, v, d.unit);
    metrics += buf;
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) append(d);
  } else {
    for (const MetricDef& d : kEndToEnd) append(d);
  }
  const bool correct = out.failed == 0 && out.identical;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", out.attempted, out.failed, metrics.c_str());
}

// ---- construct-* -------------------------------------------------------

struct ConstructInput {
  Graph g;
  ExpanderParams params;
};

ConstructInput SetUpConstruct(const Workload& w, std::size_t shards,
                              std::uint64_t seed, std::vector<double>& setup) {
  ConstructInput in;
  for (std::size_t rep = 0; rep < kConstructSetups; ++rep) {
    const auto t0 = Clock::now();
    in.g = gen::Line(w.n);
    in.params = ExpanderParams::ForSize(
        w.n, std::max<std::size_t>(1, in.g.MaxDegree()), seed);
    in.params.exec.num_shards = shards;
    in.params.exec.Pool().Run(shards, [](std::size_t) {});
    setup.push_back(Since(t0));
  }
  return in;
}

/// The construction gates: Theorem 1.1's tree (valid, depth <=
/// ceil(log2 n) + 1) carved out of a connected expander.
bool ConstructionValid(const ConstructionResult& r, std::size_t n) {
  const std::uint32_t depth_bound = CeilLog2(n) + 1;
  return r.tree.num_nodes() == n && r.expander.num_nodes() == n &&
         ValidateWellFormedTree(r.tree, depth_bound) && IsConnected(r.expander);
}

/// One construction: its result, wall time, and whether it passed.
struct ConstructOp {
  ConstructionResult result;
  double seconds = 0.0;
  bool ok = false;
};

template <typename F>
ConstructOp TimedConstruct(std::size_t n, F&& construct) {
  ConstructOp op;
  const auto t0 = Clock::now();
  try {
    op.result = construct();
    op.seconds = Since(t0);
    op.ok = ConstructionValid(op.result, n);
  } catch (const ContractViolation& e) {
    op.seconds = Since(t0);
    std::fprintf(stderr, "construction failed: %s\n", e.what());
  }
  return op;
}

void AddConstructCounts(const ConstructionResult& r, const ExpanderParams& p,
                        std::size_t n, double create_s, double build_s,
                        std::map<std::string, double>& v) {
  double steps = 0, discarded = 0, max_load = 0;
  for (const EvolutionTrace& t : r.expander_run.trace) {
    steps += static_cast<double>(t.telemetry.token_steps);
    discarded += static_cast<double>(t.telemetry.tokens_discarded);
    max_load = std::max(max_load, static_cast<double>(t.telemetry.max_token_load));
  }
  const double launched = static_cast<double>(n) *
                          static_cast<double>(p.TokensPerNode()) *
                          static_cast<double>(r.expander_run.trace.size());
  v["expander.token_steps"] = steps;
  v["expander.max_token_load"] = max_load;
  v["expander.load_bound"] = static_cast<double>(p.AcceptBound());
  v["expander.discard_ratio"] = launched > 0 ? discarded / launched : 0.0;
  v["expander.token_steps_per_s"] = create_s > 0 ? steps / create_s : 0.0;
  const auto messages = static_cast<double>(r.report.bfs_messages_delivered);
  v["bfs_tree.rounds"] = static_cast<double>(r.report.bfs_rounds);
  v["bfs_tree.messages"] = messages;
  v["bfs_tree.arena_bytes"] = static_cast<double>(r.report.bfs_arena_bytes_moved);
  v["bfs_tree.msgs_per_s"] = build_s > 0 ? messages / build_s : 0.0;
  // Measured: the BFS flood runs on an engine. Charged: (ℓ+1)·L for the
  // expander and the contraction's pointer-doubling formula.
  v["rounds.measured"] = static_cast<double>(r.report.bfs_rounds);
  v["rounds.charged"] =
      static_cast<double>(r.report.symmetrize_rounds + r.report.expander_rounds +
                          r.report.contraction_rounds);
}

Outcome RunConstruct(const Workload& w, std::size_t shards, std::uint64_t seed,
                     double seconds, bool trace) {
  Outcome out;
  std::vector<double> setup;
  ConstructInput in = SetUpConstruct(w, shards, seed, setup);
  out.values["multigraph.bytes"] = static_cast<double>(w.n) *
                                   static_cast<double>(in.params.delta) * 4.0;

  const auto untraced = [&] { return ConstructWellFormedTree(in.g, in.params); };
  if (!trace) {
    std::vector<double> latency_ms, rounds;
    const auto run0 = Clock::now();
    double last_s = 0;
    do {
      if (!latency_ms.empty()) in = SetUpConstruct(w, shards, seed, setup);
      // Hand freed memory back, so every construction starts from the same
      // heap state as the first.
      malloc_trim(0);
      const ConstructOp op = TimedConstruct(w.n, untraced);
      last_s = op.seconds;
      ++out.attempted;
      if (!op.ok) ++out.failed;
      latency_ms.push_back(op.ok ? op.seconds * 1e3 : kFailedLatency);
      if (op.ok) rounds.push_back(static_cast<double>(op.result.report.TotalRounds()));
      std::printf("construction %zu: %.3f s, %s\n", out.attempted, op.seconds,
                  op.ok ? "valid" : "FAILED");
    } while (HasTimeFor(run0, last_s, seconds));
    (void)SetUpConstruct(w, shards, seed, setup);
    out.values["setup_s"] = Median(setup);
    out.values["op_p50_ms"] = Median(latency_ms);
    out.values["op_p90_ms"] = Percentile(latency_ms, 0.9);
    out.values["op_rounds_p50"] = Median(rounds);
    return out;
  }

  Tracer tracer(true);
  const ConstructOp ref = TimedConstruct(w.n, untraced);
  const ConstructOp got = TimedConstruct(w.n, [&] {
    return tracer.Span("construct", [&] {
      return perfbench::TracedConstruct(in.g, in.params, tracer);
    });
  });
  ExpanderParams serial_params = in.params;
  serial_params.exec.num_shards = 1;
  const ConstructOp serial = TimedConstruct(
      w.n, [&] { return ConstructWellFormedTree(in.g, serial_params); });
  out.attempted = 3;
  out.failed = (ref.ok ? 0 : 1) + (got.ok ? 0 : 1) + (serial.ok ? 0 : 1);
  out.identical = ref.ok && got.ok &&
                  perfbench::SameTree(ref.result.tree, got.result.tree) &&
                  perfbench::SameReport(ref.result.report, got.result.report) &&
                  ref.result.expander.EdgeList() == got.result.expander.EdgeList();
  std::map<std::string, double> self = tracer.SelfSeconds();
  for (const MetricDef& d : kPerLayer) {
    if (self.count(d.name)) out.values[d.name] = self[d.name];
  }
  AddConstructCounts(got.result, in.params, w.n, self["expander.create_s"],
                     self["bfs_tree.build_s"], out.values);
  out.values["traced_op_s"] = got.seconds;
  out.values["unattributed_s"] = self["construct"];
  out.values["trace_overhead_s"] = got.seconds - ref.seconds;
  out.values["baseline_s1.construct_s"] = serial.seconds;
  out.values["baseline_s1.speedup"] = serial.seconds / ref.seconds;
  return out;
}

// ---- service-* ---------------------------------------------------------

ServiceOptions MakeServiceOptions(const Workload& w, std::size_t shards,
                                  std::uint64_t seed) {
  ServiceOptions opts;
  opts.scenario.strike = StrikeKind::kDrip;
  opts.scenario.strike_opts.exec.num_shards = shards;
  opts.scenario.budget_fraction = 0.001;
  opts.scenario.epochs = kEpisodeEpochs;
  opts.scenario.recovery = w.recovery;
  opts.scenario.engine = EngineKind::kSharded;
  opts.scenario.seed = seed;
  opts.epochs = kEpisodeEpochs;
  // Byzantine epochs off: one in ten would make the latency distribution
  // bimodal right at the p90.
  opts.byzantine_every = 0;
  opts.verify_monitors = true;
  return opts;
}

/// One service epoch as the benchmark records it.
struct EpochOp {
  ServiceEpochStats stats;
  double seconds = 0.0;
  bool ok = false;
};

/// Runs one episode of kEpisodeEpochs epochs; stops early on a collapse.
std::vector<EpochOp> RunEpisode(perfbench::ServiceDriver& driver, Tracer& tracer) {
  std::vector<EpochOp> ops;
  for (std::size_t epoch = 0; epoch < kEpisodeEpochs; ++epoch) {
    EpochOp op;
    bool stepped = false;
    const auto t0 = Clock::now();
    try {
      stepped = tracer.Span("epoch", [&] { return driver.Step(epoch, op.stats); });
    } catch (const ContractViolation& e) {
      std::fprintf(stderr, "epoch %zu failed: %s\n", epoch, e.what());
    }
    op.seconds = Since(t0);
    // The epoch gates: a valid BFS tree and well-formed tree, incremental
    // monitors equal to the full re-aggregation, and no accepted liar.
    op.ok = stepped && op.stats.epoch.tree_valid && op.stats.wft_valid &&
            op.stats.monitor_exact && op.stats.epoch.liars_accepted == 0;
    ops.push_back(op);
    if (!stepped) break;
  }
  return ops;
}

double EpochRounds(const ServiceEpochStats& s) {
  return static_cast<double>(s.epoch.recovery_rounds + s.wft_rounds +
                             s.monitor_rounds);
}

Outcome RunService(const Workload& w, std::size_t shards, std::uint64_t seed,
                   double seconds, bool trace) {
  Outcome out;
  const ServiceOptions opts = MakeServiceOptions(w, shards, seed);
  gen::ScenarioSpec spec;
  spec.topology = gen::Topology::kRingChords;
  spec.n = w.n;
  spec.degree = 3;
  spec.seed = seed;

  Tracer untraced(false);
  std::vector<double> setup;
  Graph start;
  std::unique_ptr<perfbench::ServiceDriver> driver;
  const auto set_up = [&](Tracer& tracer) {
    driver.reset();
    malloc_trim(0);
    const auto t0 = Clock::now();
    start = gen::BuildScenario(spec, opts.scenario.strike_opts.exec).graph;
    driver = std::make_unique<perfbench::ServiceDriver>(start, opts, tracer);
    setup.push_back(Since(t0));
  };
  for (std::size_t rep = 0; rep < kServiceSetups; ++rep) set_up(untraced);

  const auto count = [&](const std::vector<EpochOp>& ops) {
    for (const EpochOp& op : ops) {
      ++out.attempted;
      if (!op.ok) ++out.failed;
    }
  };

  if (!trace) {
    std::vector<double> latency_ms, rounds;
    const auto run0 = Clock::now();
    for (std::size_t episode = 0;; ++episode) {
      const auto episode0 = Clock::now();
      if (episode > 0) set_up(untraced);
      const std::vector<EpochOp> ops = RunEpisode(*driver, untraced);
      const double episode_s = Since(episode0);
      count(ops);
      for (const EpochOp& op : ops) {
        latency_ms.push_back(op.ok ? op.seconds * 1e3 : kFailedLatency);
        if (op.ok) rounds.push_back(EpochRounds(op.stats));
      }
      std::printf("episode %zu: %zu epochs, %zu nodes left, %.3f s so far\n",
                  episode, ops.size(), ops.back().stats.epoch.survivors,
                  Since(run0));
      if (!HasTimeFor(run0, episode_s, seconds)) break;
    }
    for (std::size_t rep = 0; rep < kServiceSetups; ++rep) set_up(untraced);
    out.values["setup_s"] = Median(setup);
    out.values["op_p50_ms"] = Median(latency_ms);
    out.values["op_p90_ms"] = Percentile(latency_ms, 0.9);
    out.values["op_rounds_p50"] = Median(rounds);
    return out;
  }

  const std::vector<EpochOp> ref = RunEpisode(*driver, untraced);
  Tracer tracer(true);
  set_up(tracer);
  const std::vector<EpochOp> got = RunEpisode(*driver, tracer);
  count(ref);
  count(got);
  const std::size_t compared = std::min(ref.size(), got.size());
  out.identical = ref.size() == got.size();
  for (std::size_t i = 0; out.identical && i < compared; ++i) {
    out.identical = perfbench::SameEpoch(ref[i].stats, got[i].stats);
  }

  const auto epochs = static_cast<double>(compared);
  std::map<std::string, double> self = tracer.SelfSeconds();
  for (const MetricDef& d : kPerLayer) {
    if (self.count(d.name)) out.values[d.name] = self[d.name] / epochs;
  }
  double ref_s = 0, got_s = 0, split_s = 0;
  std::map<std::string, double> sum;
  for (std::size_t i = 0; i < compared; ++i) {
    const ServiceEpochStats& s = got[i].stats;
    ref_s += ref[i].seconds;
    got_s += got[i].seconds;
    sum["adversary.strike_s"] += s.epoch.strike_seconds;
    sum["churn.extract_s"] += s.epoch.extract_seconds;
    sum["bfs_tree.recover_s"] += s.epoch.recovery_seconds;
    sum["wft.changed"] += static_cast<double>(s.wft_changed);
    sum["monitoring.dirty"] += static_cast<double>(s.monitor_dirty);
    sum["bfs_tree.recovery_rounds"] += static_cast<double>(s.epoch.recovery_rounds);
    sum["bfs_tree.recovery_messages"] +=
        static_cast<double>(s.epoch.recovery_messages);
    // Measured: flood rounds or repair waves, counted as they run.
    // Charged: the WFT repair and monitor bills.
    sum["rounds.measured"] += static_cast<double>(s.epoch.recovery_rounds);
    sum["rounds.charged"] += static_cast<double>(s.wft_rounds + s.monitor_rounds);
    split_s += s.epoch.strike_seconds + s.epoch.extract_seconds +
               s.epoch.recovery_seconds;
  }
  for (const auto& [name, total] : sum) out.values[name] = total / epochs;
  out.values["adversary.epoch_other_s"] =
      (self["adversary.scenario_epoch_s"] - split_s) / epochs;
  const double recover_s = out.values["bfs_tree.recover_s"];
  out.values["bfs_tree.msgs_per_s"] =
      recover_s > 0 ? out.values["bfs_tree.recovery_messages"] / recover_s : 0.0;
  out.values["traced_op_s"] = got_s / epochs;
  out.values["unattributed_s"] = self["epoch"] / epochs;
  out.values["trace_overhead_s"] = (got_s - ref_s) / epochs;
  return out;
}

// ---- command line ------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    char* end = nullptr;
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], &end, 10);
      have_seed = *end == '\0';
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::strtod(argv[i + 1], &end);
      if (*end != '\0') return Usage();
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::strcmp(argv[i + 1], "1") == 0   ? 1
              : std::strcmp(argv[i + 1], "0") == 0 ? 0
                                                   : -1;
    } else {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload != nullptr && std::strcmp(workload, cand.name) == 0) w = &cand;
  }
  if (w == nullptr || !have_seed || !(seconds > 0) || trace < 0 || argc % 2 == 0) {
    return Usage();
  }

  // Never run more threads than the host has cores. With fewer cores than
  // the workload's S, the run uses S = nproc and its wall-clock metrics are
  // unresolved: only its counts stand.
  const Host host = ReadHost();
  const std::size_t shards = std::min(kShards, host.nproc);
  const bool unresolved = shards < kShards;
  std::printf("host: nproc=%zu l2=%.0f B/core l3=%.0f B S=%zu%s\n", host.nproc,
              host.l2_bytes, host.l3_bytes, shards,
              unresolved ? " (fewer cores than the workload's S: wall-clock "
                           "metrics unresolved)"
                         : "");

  Outcome out = w->kind == Kind::kConstruct
                    ? RunConstruct(*w, shards, seed, seconds, trace == 1)
                    : RunService(*w, shards, seed, seconds, trace == 1);

  const double l2_total = host.l2_bytes * static_cast<double>(host.nproc);
  out.values["peak_rss_mb"] = PeakRssMb();
  out.values["fail_rate"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  out.values["span_coverage"] =
      out.values["traced_op_s"] > 0
          ? 1.0 - out.values["unattributed_s"] / out.values["traced_op_s"]
          : 0.0;
  out.values["host.nproc"] = static_cast<double>(host.nproc);
  out.values["host.l2_bytes"] = host.l2_bytes;
  out.values["host.l2_total_bytes"] = l2_total;
  out.values["host.l3_bytes"] = host.l3_bytes;
  out.values["host.shards"] = static_cast<double>(shards);
  out.values["host.ws_ratio"] =
      l2_total > 0 ? out.values["multigraph.bytes"] / l2_total : 0.0;
  out.values["host.unresolved"] = unresolved ? 1.0 : 0.0;
  std::printf("working set: multigraph %.0f B computed, %.2fx total L2 "
              "(%zu x %.0f B)\n",
              out.values["multigraph.bytes"], out.values["host.ws_ratio"],
              host.nproc, host.l2_bytes);
  if (!out.identical) {
    std::printf("traced outputs differ from the untraced run\n");
  }
  PrintResult(out, trace == 1);
  return 0;
}

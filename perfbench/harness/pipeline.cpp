#include "harness/pipeline.hpp"

#include <chrono>
#include <utility>

#include "graph/metrics.hpp"
#include "overlay/benign.hpp"
#include "overlay/bfs_tree.hpp"

namespace perfbench {

using namespace overlay;

ConstructionResult TracedConstruct(const Graph& g, const ExpanderParams& params,
                                   Tracer& tracer) {
  const bool connected =
      tracer.Span("graph.is_connected_s", [&] { return IsConnected(g); });
  OVERLAY_CHECK(connected, "Theorem 1.1 requires a connected input");

  ConstructionResult result;
  result.report.symmetrize_rounds = 0;

  const Multigraph g0 =
      tracer.Span("benign.make_s", [&] { return MakeBenign(g, params); });

  result.expander_run = tracer.Span(
      "expander.create_s", [&] { return CreateExpander(g0, params); });
  result.report.expander_rounds = result.expander_run.total_rounds;
  result.expander = tracer.Span("graph.to_simple_s", [&] {
    return result.expander_run.final_graph.ToSimpleGraph();
  });
  const bool expander_connected = tracer.Span(
      "graph.is_connected_s", [&] { return IsConnected(result.expander); });
  OVERLAY_CHECK(expander_connected,
                "expander construction disconnected the graph — parameters "
                "too aggressive for this input");

  const BfsTreeResult bfs = tracer.Span("bfs_tree.build_s", [&] {
    return params.exec.num_shards > 1
               ? BuildBfsTree(result.expander, EngineKind::kSharded,
                              EngineConfig{.capacity = 0,
                                           .seed = params.seed ^ 0xb5f5ULL,
                                           .exec = params.exec})
               : BuildBfsTree(result.expander, /*capacity=*/0,
                              /*seed=*/params.seed ^ 0xb5f5ULL);
  });
  result.report.bfs_rounds = bfs.stats.rounds;
  result.report.max_node_messages_bfs =
      bfs.stats.max_send_load * bfs.stats.rounds;
  result.report.bfs_messages_delivered = bfs.stats.messages_delivered;
  result.report.bfs_arena_bytes_moved = bfs.arena_bytes_moved;

  result.tree = tracer.Span("wft.contract_s",
                            [&] { return ContractToWellFormedTree(bfs); });
  result.report.contraction_rounds = result.tree.rounds_charged;

  std::uint64_t expander_per_node = 0;
  std::uint64_t expander_total = 0;
  for (const EvolutionTrace& t : result.expander_run.trace) {
    expander_per_node +=
        t.telemetry.max_token_load * params.walk_length + params.delta / 2;
    expander_total += t.telemetry.token_steps + t.telemetry.reply_messages;
  }
  result.report.total_messages = expander_total + bfs.stats.messages_sent;
  result.report.max_node_messages_total =
      expander_per_node + result.report.max_node_messages_bfs;
  return result;
}

ServiceDriver::ServiceDriver(const Graph& start, const ServiceOptions& opts,
                             Tracer& tracer)
    : opts_(opts),
      tracer_(tracer),
      st_(BeginScenario(start, opts.scenario)),
      base_(MakeStrikeStrategy(opts.scenario.strike)),
      byz_(MakeStrikeStrategy(StrikeKind::kByzantine)) {
  const ExecPolicy& exec = opts.scenario.strike_opts.exec;
  if (opts.scenario.recovery == RecoveryMode::kRepair) {
    wft_ = ContractToWellFormedTree(st_.tree);
    (void)MonitorNodeCountIncremental(wft_, nodes_cache_, exec);
    (void)MonitorEdgeCountIncremental(wft_, st_.overlay, edges_cache_, exec);
    (void)MonitorMaxDegreeIncremental(wft_, st_.overlay, maxdeg_cache_, exec);
  }
}

bool ServiceDriver::Step(std::size_t epoch, ServiceEpochStats& s) {
  const ExecPolicy& exec = opts_.scenario.strike_opts.exec;
  s = ServiceEpochStats{};
  s.byzantine =
      opts_.byzantine_every > 0 && (epoch + 1) % opts_.byzantine_every == 0;
  const StrikeStrategy& strategy = s.byzantine ? *byz_ : *base_;
  const bool ok = tracer_.Span("adversary.scenario_epoch_s", [&] {
    return RunScenarioEpoch(st_, strategy, opts_.scenario, epoch, s.epoch);
  });
  if (!ok) return false;

  const auto t0 = std::chrono::steady_clock::now();

  WftRepairResult wr = tracer_.Span("wft.repair_s", [&] {
    return RepairWellFormedTree(st_.tree, wft_, st_.last_epoch_map, exec);
  });
  s.wft_carried = wr.carried;
  s.wft_changed = wr.changed;
  s.wft_rounds = wr.tree.rounds_charged;
  wft_ = std::move(wr.tree);
  s.wft_valid = tracer_.Span("wft.validate_s",
                             [&] { return ValidateWellFormedTree(wft_, 0); });

  tracer_.Span("monitoring.remap_s", [&] {
    nodes_cache_.Remap(st_.last_epoch_map);
    edges_cache_.Remap(st_.last_epoch_map);
    maxdeg_cache_.Remap(st_.last_epoch_map);
  });
  MonitorValue mn, me, md;
  tracer_.Span("monitoring.incremental_s", [&] {
    mn = MonitorNodeCountIncremental(wft_, nodes_cache_, exec);
    me = MonitorEdgeCountIncremental(wft_, st_.overlay, edges_cache_, exec);
    md = MonitorMaxDegreeIncremental(wft_, st_.overlay, maxdeg_cache_, exec);
  });
  s.monitor_nodes = mn.value;
  s.monitor_edges = me.value;
  s.monitor_max_degree = md.value;
  s.monitor_rounds = mn.rounds + me.rounds + md.rounds;
  const std::uint32_t depth =
      tracer_.Span("wft.depth_s", [&] { return wft_.Depth(); });
  s.monitor_rounds_full = 3ull * 2ull * (depth + 1);
  s.monitor_dirty = nodes_cache_.last_dirty + edges_cache_.last_dirty +
                    maxdeg_cache_.last_dirty;
  if (opts_.verify_monitors) {
    s.monitor_exact = tracer_.Span("monitoring.verify_s", [&] {
      return mn.value == MonitorNodeCount(wft_, exec).value &&
             me.value == MonitorEdgeCount(wft_, st_.overlay, exec).value &&
             md.value == MonitorMaxDegree(wft_, st_.overlay, exec).value;
    });
  }

  s.service_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return true;
}

bool SameTree(const WellFormedTree& a, const WellFormedTree& b) {
  return a.root == b.root && a.parent == b.parent &&
         a.left_child == b.left_child && a.right_child == b.right_child &&
         a.rounds_charged == b.rounds_charged;
}

bool SameReport(const RoundReport& a, const RoundReport& b) {
  return a.symmetrize_rounds == b.symmetrize_rounds &&
         a.expander_rounds == b.expander_rounds &&
         a.bfs_rounds == b.bfs_rounds &&
         a.contraction_rounds == b.contraction_rounds &&
         a.total_messages == b.total_messages &&
         a.max_node_messages_bfs == b.max_node_messages_bfs &&
         a.max_node_messages_total == b.max_node_messages_total &&
         a.bfs_messages_delivered == b.bfs_messages_delivered &&
         a.bfs_arena_bytes_moved == b.bfs_arena_bytes_moved;
}

bool SameEpoch(const ServiceEpochStats& a, const ServiceEpochStats& b) {
  const EpochStats& x = a.epoch;
  const EpochStats& y = b.epoch;
  const bool scenario_same =
      x.epoch == y.epoch && x.nodes_before == y.nodes_before &&
      x.edges_before == y.edges_before && x.killed == y.killed &&
      x.survivors == y.survivors && x.num_components == y.num_components &&
      x.cohesion == y.cohesion && x.diameter == y.diameter &&
      x.cut_conductance == y.cut_conductance &&
      x.repair_used == y.repair_used && x.orphans == y.orphans &&
      x.reattached == y.reattached && x.recovery_rounds == y.recovery_rounds &&
      x.recovery_messages == y.recovery_messages &&
      x.tree_height == y.tree_height && x.tree_valid == y.tree_valid &&
      x.phases == y.phases && x.liars == y.liars &&
      x.quarantined == y.quarantined && x.liars_accepted == y.liars_accepted &&
      x.root_reelected == y.root_reelected;
  return scenario_same && a.byzantine == b.byzantine &&
         a.wft_carried == b.wft_carried && a.wft_changed == b.wft_changed &&
         a.wft_rounds == b.wft_rounds && a.wft_valid == b.wft_valid &&
         a.monitor_nodes == b.monitor_nodes &&
         a.monitor_edges == b.monitor_edges &&
         a.monitor_max_degree == b.monitor_max_degree &&
         a.monitor_rounds == b.monitor_rounds &&
         a.monitor_rounds_full == b.monitor_rounds_full &&
         a.monitor_dirty == b.monitor_dirty &&
         a.monitor_exact == b.monitor_exact;
}

}  // namespace perfbench

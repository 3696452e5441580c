// The benchmark's traced decomposition must compute exactly what the
// program computes, or its per-layer numbers describe some other program.
//
//   * TracedConstruct reproduces ConstructWellFormedTree's tree, round
//     report and expander bit for bit, with its spans in Construct()'s
//     call order, at S = 1 and S = 4.
//   * ServiceDriver reproduces every non-wall-clock field of
//     RunServiceScenario's ServiceEpochStats, in both recovery modes and
//     with Byzantine epochs mixed in.
//   * Tracer self times: a parent's self time plus its children's spans
//     equals the parent's duration.
//
// Plain executable (exit status 0 = pass), registered with CTest by
// perfbench/CMakeLists.txt.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/scenario_gen.hpp"
#include "harness/pipeline.hpp"

namespace {

using namespace overlay;
using perfbench::Tracer;

int failures = 0;

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, __LINE__, \
                   #cond);                                                \
      ++failures;                                                         \
    }                                                                     \
  } while (false)

void ConstructMatches(std::size_t shards) {
  const std::size_t n = std::size_t{1} << 12;
  const Graph g = gen::Line(n);
  ExpanderParams params = ExpanderParams::ForSize(n, g.MaxDegree(), 7);
  params.exec.num_shards = shards;

  const ConstructionResult ref = ConstructWellFormedTree(g, params);
  Tracer tracer(true);
  const ConstructionResult got = perfbench::TracedConstruct(g, params, tracer);
  EXPECT(perfbench::SameTree(ref.tree, got.tree));
  EXPECT(perfbench::SameReport(ref.report, got.report));
  EXPECT(ref.expander.EdgeList() == got.expander.EdgeList());

  const std::vector<std::string> order = {
      "graph.is_connected_s", "benign.make_s",        "expander.create_s",
      "graph.to_simple_s",    "graph.is_connected_s", "bfs_tree.build_s",
      "wft.contract_s"};
  std::vector<std::string> names;
  for (const Tracer::Record& r : tracer.records()) names.push_back(r.name);
  EXPECT(names == order);

  Tracer off(false);
  const ConstructionResult quiet = perfbench::TracedConstruct(g, params, off);
  EXPECT(perfbench::SameTree(ref.tree, quiet.tree));
  EXPECT(off.records().empty());
}

void ServiceMatches(RecoveryMode mode, std::size_t shards) {
  gen::ScenarioSpec spec;
  spec.topology = gen::Topology::kRingChords;
  spec.n = std::size_t{1} << 12;
  spec.degree = 3;
  spec.seed = 11;
  const Graph start = gen::BuildScenario(spec).graph;

  ServiceOptions opts;
  opts.scenario.strike = StrikeKind::kDrip;
  opts.scenario.strike_opts.exec.num_shards = shards;
  opts.scenario.budget_fraction = 0.01;
  opts.scenario.recovery = mode;
  opts.scenario.seed = 11;
  opts.epochs = 20;
  opts.scenario.epochs = opts.epochs;
  opts.byzantine_every = 5;

  const ServiceResult ref = RunServiceScenario(start, opts);
  Tracer tracer(true);
  perfbench::ServiceDriver driver(start, opts, tracer);
  std::vector<ServiceEpochStats> got;
  for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    ServiceEpochStats s;
    const bool ok = driver.Step(epoch, s);
    got.push_back(s);
    if (!ok) break;
  }
  EXPECT(!ref.collapsed);
  EXPECT(ref.epochs.size() == got.size());
  for (std::size_t i = 0; i < ref.epochs.size() && i < got.size(); ++i) {
    EXPECT(perfbench::SameEpoch(ref.epochs[i], got[i]));
  }
  EXPECT(!tracer.records().empty());
}

void SelfTimesPartitionTheParent() {
  Tracer tracer(true);
  volatile double sink = 0;
  tracer.Span("parent", [&] {
    for (int i = 0; i < 100000; ++i) sink = sink + i;
    tracer.Span("child", [&] {
      for (int i = 0; i < 100000; ++i) sink = sink + i;
    });
  });
  const auto self = tracer.SelfSeconds();
  const Tracer::Record& parent = tracer.records().at(0);
  const Tracer::Record& child = tracer.records().at(1);
  EXPECT(child.parent == 0 && parent.parent == -1);
  EXPECT(std::abs(self.at("parent") + self.at("child") -
                  (parent.end - parent.start)) < 1e-12);
}

}  // namespace

int main() {
  ConstructMatches(1);
  ConstructMatches(4);
  ServiceMatches(RecoveryMode::kRepair, 1);
  ServiceMatches(RecoveryMode::kRepair, 4);
  ServiceMatches(RecoveryMode::kRebuild, 4);
  SelfTimesPartitionTheParent();
  if (failures == 0) std::printf("decomposition_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

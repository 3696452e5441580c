// The benchmark's copies of the program's two top-level drivers, split at
// every call into a layer so each call can carry a trace span.
//
//   * TracedConstruct is ConstructWellFormedTree(const Graph&, params)
//     (src/overlay/construct.cpp): the same layer calls in the same order.
//   * ServiceDriver is RunServiceScenario's set-up and epoch loop
//     (src/overlay/service.cpp), one epoch per Step() so the benchmark can
//     time each epoch on its own.
//
// Both must produce exactly what the originals produce; the decomposition
// test in tests/ checks that bit for bit, so these copies cannot drift from
// the code they mirror.
#pragma once

#include <cstdint>
#include <memory>

#include "harness/trace.hpp"
#include "overlay/construct.hpp"
#include "overlay/service.hpp"

namespace perfbench {

/// ConstructWellFormedTree(g, params) with a span around each layer call.
overlay::ConstructionResult TracedConstruct(const overlay::Graph& g,
                                            const overlay::ExpanderParams& params,
                                            Tracer& tracer);

/// RunServiceScenario(start, opts), one epoch at a time.
class ServiceDriver {
 public:
  /// The service's set-up: BeginScenario, then (repair mode) the
  /// well-formed tree contraction and the first fold of the three monitors.
  ServiceDriver(const overlay::Graph& start, const overlay::ServiceOptions& opts,
                Tracer& tracer);

  /// Runs service epoch `epoch` into `s`. Returns false when the strike
  /// collapsed the overlay (`s` then holds only the scenario record).
  bool Step(std::size_t epoch, overlay::ServiceEpochStats& s);

 private:
  const overlay::ServiceOptions& opts_;
  Tracer& tracer_;
  overlay::ScenarioState st_;
  std::unique_ptr<overlay::StrikeStrategy> base_, byz_;
  overlay::WellFormedTree wft_;
  overlay::MonitorCache nodes_cache_, edges_cache_, maxdeg_cache_;
};

/// Field-by-field equality of the outputs the benchmark compares.
bool SameTree(const overlay::WellFormedTree& a, const overlay::WellFormedTree& b);
bool SameReport(const overlay::RoundReport& a, const overlay::RoundReport& b);
/// Every field except the wall-clock ones (strike/extract/recovery/service
/// seconds), which no two runs share.
bool SameEpoch(const overlay::ServiceEpochStats& a,
               const overlay::ServiceEpochStats& b);

}  // namespace perfbench

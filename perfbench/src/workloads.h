// The benchmark's workloads. Each builds its own cluster and repository from
// generated inputs, drives the libraries' public entry points, and times
// those calls from here.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/repository.h"
#include "harness.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace perfbench {

/// A Polaris-like cluster slice: `gpus` workers, 4 per node, one provider per
/// node, 25 GB/s NICs, 1.5 us fabric latency, the controller on its own node.
/// The same shape as the figure harnesses', kept here so that editing those
/// harnesses can never change what this benchmark measures.
struct Cluster {
  evostore::sim::Simulation sim;
  evostore::net::Fabric fabric;
  evostore::net::RpcSystem rpc;
  evostore::common::NodeId controller;
  std::vector<evostore::common::NodeId> workers;         // one per GPU
  std::vector<evostore::common::NodeId> provider_nodes;  // one per node

  explicit Cluster(int gpus);
};

/// A simulated measurement with the number of samples behind it.
struct SimMetric {
  double value = 0;
  const char* unit = "";
  size_t samples = 0;
};

/// What one round (set-up, timed phase, optional verification) produced.
struct RoundOut {
  std::vector<double> setup_s;  // host seconds per set-up performed
  double wall_s = 0;            // host seconds of the timed phase
  OpCount ops;
  /// Digest of every simulated result of the round; equal across rounds of
  /// one seed and between traced and untraced rounds.
  uint64_t digest = 0;
  /// End-to-end metrics on the simulated clock, by the names in README.md.
  std::map<std::string, SimMetric> sim;
  /// Per-layer metrics (see kLayerMetrics); unset names read 0.
  std::map<std::string, double> layers;
};

struct RoundOptions {
  bool traced = false;  // spans, metrics registry, timed decorators
  bool verify = false;  // correctness checks after the timed phase
  SpanLog* spans = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual RoundOut round(const RoundOptions& options) = 0;
  /// Host seconds spent generating this workload's inputs.
  double gen_host_s() const { return gen_host_s_; }

 protected:
  double gen_host_s_ = 0;
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed);

/// Every per-layer metric the traced run reports, with its unit, in output
/// order. BENCHMARK.json's `per_layer` lists the same names.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetricDef> kLayerMetrics;

/// Sum of the simulated-network counters a round reads before and after its
/// timed phase.
struct NetSnapshot {
  evostore::net::RpcStats rpc;
  double fabric_bytes = 0;
  uint64_t events = 0;
};
NetSnapshot snapshot_net(Cluster& cluster);
/// Writes the `sim.events` and `net.*` counters of the timed phase.
void record_net(const NetSnapshot& before, const NetSnapshot& after,
                RoundOut& out);

/// Provider counters summed over the repository's providers.
evostore::core::ProviderStats sum_provider_stats(
    const evostore::core::EvoStoreRepository& repo);
/// Writes the `core.*` counters of the timed phase and the stored
/// physical-per-logical ratio at its end.
void record_core(const evostore::core::ProviderStats& before,
                 const evostore::core::ProviderStats& after,
                 const evostore::core::EvoStoreRepository& repo, RoundOut& out);
/// Writes the simulated-latency digests of a traced round: provider
/// histograms from `shared` (attached before the repository was built) and
/// RPC histograms from `rpc` (attached for the timed phase).
void record_registries(const evostore::obs::MetricsRegistry& shared,
                       const evostore::obs::MetricsRegistry& rpc,
                       RoundOut& out);

std::unique_ptr<Workload> make_lcp_workload(const std::string& name,
                                            uint64_t seed);
std::unique_ptr<Workload> make_nas_workload(const std::string& name,
                                            uint64_t seed);

}  // namespace perfbench

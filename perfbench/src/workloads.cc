#include "workloads.h"

namespace perfbench {

namespace core = evostore::core;

Cluster::Cluster(int gpus)
    : fabric(sim, evostore::net::FabricConfig{.latency = 1.5e-6,
                                              .local_latency = 2e-7}),
      rpc(fabric) {
  constexpr int kGpusPerNode = 4;
  controller = fabric.add_node(25e9, 25e9, "controller");
  for (int n = 0; n * kGpusPerNode < gpus; ++n) {
    auto node = fabric.add_node(25e9, 25e9);
    provider_nodes.push_back(node);
    for (int g = 0; g < kGpusPerNode && static_cast<int>(workers.size()) < gpus;
         ++g) {
      workers.push_back(node);
    }
  }
}

const std::vector<LayerMetricDef> kLayerMetrics = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"net.rpc_calls", "count"},
    {"net.bulk_transfers", "count"},
    {"net.request_bytes", "B"},
    {"net.response_bytes", "B"},
    {"net.bulk_bytes", "B"},
    {"net.rpc_failures", "count"},
    {"net.fabric_bytes", "B"},
    {"net.rpc_sim_p50_us", "us"},
    {"net.rpc_sim_p99_us", "us"},
    {"core.lcp_models_scanned", "count"},
    {"core.lcp_vertex_visits", "count"},
    {"core.lcp_scan_dup_ratio", "ratio"},
    {"core.lcp_host_ns_per_pair", "ns"},
    {"core.lcp_host_share", "frac"},
    {"core.provider_lcp_sim_p50_us", "us"},
    {"core.provider_put_sim_p50_ms", "ms"},
    {"core.puts", "count"},
    {"core.segment_reads", "count"},
    {"core.retires", "count"},
    {"core.refs_added", "count"},
    {"core.refs_removed", "count"},
    {"core.segments_freed", "count"},
    {"core.physical_per_logical", "ratio"},
    {"storage.kv_puts", "count"},
    {"storage.kv_erases", "count"},
    {"storage.kv_put_bytes", "B"},
    {"storage.kv_host_s", "s"},
    {"storage.kv_writes_per_put", "ratio"},
    {"storage.pfs_mds_ops", "count"},
    {"storage.pfs_stored_bytes", "B"},
    {"baseline.stores", "count"},
    {"baseline.loads", "count"},
    {"baseline.ranged_reads", "count"},
    {"baseline.staged_bytes", "B"},
    {"baseline.redis_entries_scanned", "count"},
    {"baseline.host_us_per_ranged_read", "us"},
    {"compress.encodes", "count"},
    {"compress.bytes_in", "B"},
    {"compress.bytes_out", "B"},
    {"compress.encode_host_s", "s"},
    {"compress.decode_host_s", "s"},
    {"nas.transfers", "count"},
    {"nas.mean_lcp_fraction", "frac"},
    {"nas.retired", "count"},
    {"nas.train_sim_s", "s"},
    {"workload.gen_host_s", "s"},
    {"obs.trace_overhead_frac", "frac"},
};

NetSnapshot snapshot_net(Cluster& cluster) {
  NetSnapshot s;
  s.rpc = cluster.rpc.stats();
  for (size_t n = 0; n < cluster.fabric.node_count(); ++n) {
    s.fabric_bytes +=
        cluster.fabric.bytes_out(static_cast<evostore::common::NodeId>(n));
  }
  s.events = cluster.sim.steps();
  return s;
}

void record_net(const NetSnapshot& before, const NetSnapshot& after,
                RoundOut& out) {
  const auto& a = after.rpc;
  const auto& b = before.rpc;
  out.layers["sim.events"] = static_cast<double>(after.events - before.events);
  out.layers["net.rpc_calls"] = static_cast<double>(a.calls - b.calls);
  out.layers["net.bulk_transfers"] =
      static_cast<double>(a.bulk_transfers - b.bulk_transfers);
  out.layers["net.request_bytes"] = a.request_bytes - b.request_bytes;
  out.layers["net.response_bytes"] = a.response_bytes - b.response_bytes;
  out.layers["net.bulk_bytes"] = a.bulk_bytes - b.bulk_bytes;
  out.layers["net.rpc_failures"] = static_cast<double>(
      (a.deadline_exceeded - b.deadline_exceeded) +
      (a.unavailable - b.unavailable));
  out.layers["net.fabric_bytes"] = after.fabric_bytes - before.fabric_bytes;
}

core::ProviderStats sum_provider_stats(const core::EvoStoreRepository& repo) {
  core::ProviderStats sum;
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    const core::ProviderStats& s = repo.provider(p).stats();
    sum.puts += s.puts;
    sum.segment_reads += s.segment_reads;
    sum.lcp_queries += s.lcp_queries;
    sum.lcp_models_scanned += s.lcp_models_scanned;
    sum.lcp_vertex_visits += s.lcp_vertex_visits;
    sum.retires += s.retires;
    sum.refs_added += s.refs_added;
    sum.refs_removed += s.refs_removed;
    sum.segments_freed += s.segments_freed;
  }
  return sum;
}

void record_core(const core::ProviderStats& b, const core::ProviderStats& a,
                 const core::EvoStoreRepository& repo, RoundOut& out) {
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double scanned = delta(a.lcp_models_scanned, b.lcp_models_scanned);
  out.layers["core.lcp_models_scanned"] = scanned;
  out.layers["core.lcp_vertex_visits"] =
      delta(a.lcp_vertex_visits, b.lcp_vertex_visits);
  // Models scanned per query per distinct model in the catalog: 1.0 would
  // mean each stored model is examined once per query; k-way replication
  // makes every replica scan its copy.
  const double queries = delta(a.lcp_queries, b.lcp_queries) /
                         static_cast<double>(repo.provider_count());
  const double models = static_cast<double>(repo.total_models()) /
                        static_cast<double>(repo.membership().replication());
  out.layers["core.lcp_scan_dup_ratio"] =
      queries > 0 && models > 0 ? scanned / (queries * models) : 0;
  out.layers["core.puts"] = delta(a.puts, b.puts);
  out.layers["core.segment_reads"] = delta(a.segment_reads, b.segment_reads);
  out.layers["core.retires"] = delta(a.retires, b.retires);
  out.layers["core.refs_added"] = delta(a.refs_added, b.refs_added);
  out.layers["core.refs_removed"] = delta(a.refs_removed, b.refs_removed);
  out.layers["core.segments_freed"] =
      delta(a.segments_freed, b.segments_freed);
  const double logical = static_cast<double>(repo.stored_payload_bytes());
  out.layers["core.physical_per_logical"] =
      logical > 0 ? static_cast<double>(repo.stored_physical_bytes()) / logical
                  : 0;
}

namespace {

double quantile_of(const evostore::obs::MetricsRegistry& registry,
                   std::string_view name, double q) {
  for (const auto& [n, h] : registry.histograms()) {
    if (n == name) return h->quantile(q);
  }
  return 0;
}

}  // namespace

void record_registries(const evostore::obs::MetricsRegistry& shared,
                       const evostore::obs::MetricsRegistry& rpc,
                       RoundOut& out) {
  out.layers["net.rpc_sim_p50_us"] =
      quantile_of(rpc, "rpc.call_seconds", 0.5) * 1e6;
  out.layers["net.rpc_sim_p99_us"] =
      quantile_of(rpc, "rpc.call_seconds", 0.99) * 1e6;
  out.layers["core.provider_lcp_sim_p50_us"] =
      quantile_of(shared, "provider.lcp_seconds", 0.5) * 1e6;
  out.layers["core.provider_put_sim_p50_ms"] =
      quantile_of(shared, "provider.put_seconds", 0.5) * 1e3;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed) {
  if (auto w = make_lcp_workload(name, seed)) return w;
  return make_nas_workload(name, seed);
}

}  // namespace perfbench

// nas-transfer and nas-hdf5: the NAS search of paper Fig. 8 (with random
// search; see round()), once against EvoStore and once against the
// HDF5+PFS(+Redis) baseline. Each simulated GPU runs a closed loop: transfer,
// train, store, report, retire.
#include <cstdio>
#include <set>

#include "baseline/hdf5_pfs.h"
#include "baseline/redis_queries.h"
#include "compress/codec.h"
#include "core/lcp.h"
#include "decorators.h"
#include "nas/attn_space.h"
#include "nas/runner.h"
#include "storage/mem_kv.h"
#include "storage/pfs.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = evostore::core;
namespace model = evostore::model;
namespace sim = evostore::sim;
namespace storage = evostore::storage;
namespace baseline = evostore::baseline;

struct NasShape {
  bool evostore;  // false: the HDF5+PFS(+Redis) baseline
  int gpus;
  size_t candidates;  // >= 100, so put and transfer p90 have ten beyond
};

/// Set-up repeated this many times per round: one NAS set-up takes well
/// under a millisecond, too little for a single host reading to be steady.
constexpr int kSetupRepeats = 100;

/// Everything one NAS round runs against, built in one step so set-up can
/// be timed as a unit.
struct Deployment {
  Cluster cluster;
  evostore::obs::MetricsRegistry registry;
  // EvoStore leg: write-through in-memory backends behind counting wrappers.
  KvCounts kv;
  std::vector<std::unique_ptr<storage::MemKv>> mem;
  std::vector<std::unique_ptr<CountingKv>> counted;
  std::unique_ptr<core::EvoStoreRepository> evo;
  // Baseline leg, configured as in the Fig. 8 harness.
  std::unique_ptr<storage::Pfs> pfs;
  std::unique_ptr<baseline::RedisQueries> redis;
  std::unique_ptr<baseline::Hdf5PfsRepository> h5;

  Deployment(const NasShape& shape, bool traced) : cluster(shape.gpus) {
    if (traced) cluster.rpc.set_metrics(&registry);
    if (shape.evostore) {
      std::vector<storage::KvStore*> backends;
      for (size_t i = 0; i < cluster.provider_nodes.size(); ++i) {
        mem.push_back(std::make_unique<storage::MemKv>());
        counted.push_back(
            std::make_unique<CountingKv>(mem.back().get(), &kv, traced));
        backends.push_back(counted.back().get());
      }
      evo = std::make_unique<core::EvoStoreRepository>(
          cluster.rpc, cluster.provider_nodes, core::ProviderConfig{},
          backends);
      return;
    }
    auto redis_node = cluster.fabric.add_node(25e9, 25e9, "redis");
    pfs = std::make_unique<storage::Pfs>(cluster.fabric, storage::PfsConfig{});
    baseline::RedisConfig rcfg;
    rcfg.op_seconds = 50e-3;
    redis = std::make_unique<baseline::RedisQueries>(cluster.rpc, redis_node,
                                                     rcfg);
    baseline::Hdf5PfsConfig h5cfg;
    h5cfg.staging_bandwidth = 0.25e9;
    h5cfg.context_setup_seconds = 11.0;
    h5cfg.per_dataset_seconds = 10e-3;
    h5cfg.partial_read_seconds = 450e-3;
    h5 = std::make_unique<baseline::Hdf5PfsRepository>(*pfs, redis.get(),
                                                       h5cfg);
  }

  core::ModelRepository* repository() {
    return evo != nullptr ? static_cast<core::ModelRepository*>(evo.get())
                          : h5.get();
  }
};

std::vector<double> to_ms(const std::vector<double>& seconds) {
  std::vector<double> ms;
  for (double s : seconds) ms.push_back(s * 1e3);
  return ms;
}

/// `ms` samples as {p50, p90} simulated-latency metrics named `prefix`.
void record_latency(const std::string& prefix, const std::vector<double>& ms,
                    RoundOut& out) {
  out.sim[prefix + "_p50_ms"] = {percentile(ms, 0.5).value_or(0), "ms",
                                 ms.size()};
  out.sim[prefix + "_p90_ms"] = {percentile(ms, 0.9).value_or(0), "ms",
                                 ms.size()};
}

/// Writes the `compress.*` counters summed over the clients of `nodes`.
void record_compress(core::EvoStoreRepository& repo,
                     const std::vector<evostore::common::NodeId>& nodes,
                     RoundOut& out) {
  double encodes = 0;
  double bytes_in = 0;
  double bytes_out = 0;
  double encode_s = 0;
  double decode_s = 0;
  evostore::common::NodeId last = evostore::common::NodeId(-1);
  for (auto node : nodes) {
    if (node == last) continue;  // one client per node; workers share it
    last = node;
    for (const auto& s : repo.client(node).codec_stats()) {
      encodes += static_cast<double>(s.encodes);
      bytes_in += static_cast<double>(s.bytes_in);
      bytes_out += static_cast<double>(s.bytes_out);
      encode_s += s.encode_seconds.sum();
      decode_s += s.decode_seconds.sum();
    }
  }
  out.layers["compress.encodes"] = encodes;
  out.layers["compress.bytes_in"] = bytes_in;
  out.layers["compress.bytes_out"] = bytes_out;
  out.layers["compress.encode_host_s"] = encode_s;
  out.layers["compress.decode_host_s"] = decode_s;
}

class NasWorkload final : public Workload {
 public:
  NasWorkload(NasShape shape, uint64_t seed) : shape_(shape), seed_(seed) {
    // The search itself generates the candidates from the seed; the only
    // input prepared here is the search space.
    double t0 = host_now();
    space_ = std::make_unique<evostore::nas::AttnSearchSpace>();
    gen_host_s_ = host_now() - t0;
  }

  RoundOut round(const RoundOptions& options) override;

 private:
  void verify(Deployment& d, TimedRepository& repo,
              const evostore::nas::NasResult& result, RepoCalls& calls,
              RoundOut& out) const;

  NasShape shape_;
  uint64_t seed_;
  std::unique_ptr<evostore::nas::AttnSearchSpace> space_;
};

RoundOut NasWorkload::round(const RoundOptions& options) {
  RoundOut out;
  SpanLog& spans = *options.spans;
  std::unique_ptr<Deployment> d;
  double h0 = 0;
  double h_timed = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d.reset();
    h0 = host_now();
    d = std::make_unique<Deployment>(shape_, options.traced);
    h_timed = host_now();
    out.setup_s.push_back(h_timed - h0);
  }
  spans.add(Span{"setup", 0, 0, h0, h_timed, 0, 0});
  Cluster& cluster = d->cluster;

  evostore::nas::NasConfig cfg;
  cfg.total_candidates = shape_.candidates;
  cfg.population_cap = 100;
  // Random search (sample_size 0), not aged evolution: evolution follows
  // one trajectory through the search space per seed, so the model sizes a
  // run visits, and with them every latency and the host work, move between
  // seeds by more than a run can average out. Random search draws candidates
  // independently, so a run's statistics average over all of them
  // (README.md, "Why random search").
  cfg.sample_size = 0;
  cfg.seed = seed_;
  cfg.retire_dropped = true;
  cfg.use_transfer = true;

  RepoCalls calls;
  calls.record_queries = options.traced;
  TimedRepository repo(d->repository(), &cluster.sim, &calls, &spans);
  const NetSnapshot net0 = snapshot_net(cluster);
  const core::ProviderStats core0 =
      d->evo != nullptr ? sum_provider_stats(*d->evo) : core::ProviderStats{};
  const KvCounts kv0 = d->kv;  // set-up writes each backend's epoch
  evostore::nas::NasResult result =
      evostore::nas::run_nas(cluster.sim, cluster.fabric, *space_, &repo,
                             cluster.workers, cluster.controller, cfg);
  const double h_end = host_now();
  out.wall_s = h_end - h_timed;
  spans.add(Span{"timed", 0, cluster.sim.now(), h_timed, h_end, 0, 0});
  record_net(net0, snapshot_net(cluster), out);
  if (d->evo != nullptr) {
    record_core(core0, sum_provider_stats(*d->evo), *d->evo, out);
    record_compress(*d->evo, cluster.workers, out);
    const double kv_puts = static_cast<double>(d->kv.puts - kv0.puts);
    out.layers["storage.kv_puts"] = kv_puts;
    out.layers["storage.kv_erases"] =
        static_cast<double>(d->kv.erases - kv0.erases);
    out.layers["storage.kv_put_bytes"] =
        static_cast<double>(d->kv.put_bytes - kv0.put_bytes);
    out.layers["storage.kv_host_s"] = d->kv.host_s - kv0.host_s;
    const double puts = out.layers["core.puts"];
    out.layers["storage.kv_writes_per_put"] = puts > 0 ? kv_puts / puts : 0;
  } else {
    const auto& io = d->h5->io_stats();
    out.layers["baseline.stores"] = static_cast<double>(io.stores);
    out.layers["baseline.loads"] = static_cast<double>(io.loads);
    out.layers["baseline.ranged_reads"] = static_cast<double>(io.ranged_reads);
    out.layers["baseline.staged_bytes"] = io.staged_bytes;
    out.layers["baseline.redis_entries_scanned"] =
        static_cast<double>(d->redis->stats().entries_scanned);
    out.layers["storage.pfs_mds_ops"] = static_cast<double>(d->pfs->mds_ops());
    out.layers["storage.pfs_stored_bytes"] =
        static_cast<double>(d->pfs->stored_bytes());
  }
  if (options.traced) record_registries(d->registry, d->registry, out);
  out.layers["nas.transfers"] = static_cast<double>(result.transfers);
  out.layers["nas.mean_lcp_fraction"] = result.mean_lcp_fraction;
  out.layers["nas.retired"] = static_cast<double>(result.retired);
  out.layers["nas.train_sim_s"] = result.total_train_seconds;

  // ---- Simulated results ----
  const double io = result.total_io_seconds;
  const double train = result.total_train_seconds;
  const size_t tasks = result.traces.size();
  const double stored = d->evo != nullptr
                            ? static_cast<double>(d->evo->stored_physical_bytes())
                            : static_cast<double>(d->pfs->stored_bytes());
  out.sim["sim_s"] = {result.makespan, "s", tasks};
  out.sim["nas_makespan_s"] = {result.makespan, "s", tasks};
  out.sim["nas_io_share"] = {io / (io + train), "frac", tasks};
  out.sim["stored_gb"] = {stored / 1e9, "GB", 1};
  const std::vector<double> put_ms = to_ms(calls.store_s);
  record_latency("put", put_ms, out);
  record_latency("transfer", to_ms(calls.transfer_s), out);
  // The operation the end-to-end gate follows is the write path, store.
  out.sim["op_p50_ms"] = out.sim["put_p50_ms"];
  out.sim["op_tail_ms"] = {
      percentile(put_ms, tail_quantile(put_ms.size())).value_or(0), "ms",
      put_ms.size()};

  Digest digest;
  digest.add_f64(result.makespan);
  digest.add_f64(stored);
  for (const auto& t : result.traces) {
    digest.add_f64(t.start);
    digest.add_f64(t.finish);
    digest.add_f64(t.accuracy);
    digest.add_u64(t.lcp_len);
  }
  for (double s : calls.store_s) digest.add_f64(s);
  for (double s : calls.transfer_s) digest.add_f64(s);
  digest.add_u64(static_cast<uint64_t>(out.layers["net.rpc_calls"]));
  digest.add_u64(static_cast<uint64_t>(out.layers["sim.events"]));
  out.digest = digest.value();

  if (options.verify) {
    const double hv = host_now();
    const double tv = cluster.sim.now();
    verify(*d, repo, result, calls, out);
    spans.add(Span{"verify", tv, cluster.sim.now(), hv, host_now(), 0, 0});
  }
  out.ops.merge(calls.ops);
  return out;
}

void NasWorkload::verify(Deployment& d, TimedRepository& repo,
                         const evostore::nas::NasResult& result,
                         RepoCalls& calls, RoundOut& out) const {
  Cluster& cluster = d.cluster;
  const evostore::common::NodeId reader = cluster.workers[0];
  // The models the decorator saw stored and not retired are exactly the
  // search's surviving population.
  std::set<uint64_t> survivors;
  for (auto id : result.final_population) survivors.insert(id.value);
  std::set<uint64_t> recorded;
  for (const auto& [id, identities] : calls.stored) recorded.insert(id);
  out.ops.check(survivors == recorded);

  // Read every survivor back and match its per-vertex identities.
  std::vector<model::ArchGraph> graphs;
  auto readback = [&]() -> sim::CoTask<void> {
    for (const auto& [id, identities] : calls.stored) {
      auto m = co_await repo.load(reader, evostore::common::ModelId{id});
      bool match = m.ok() && segment_identities(*m) == identities;
      if (!match) std::fprintf(stderr, "model %llu: read-back mismatch\n",
                               static_cast<unsigned long long>(id));
      out.ops.check(match);
      if (m.ok()) graphs.push_back(m->graph());
    }
  };
  cluster.sim.run_until_complete(readback());

  // The host cost of Algorithm 1 on this run's own queries against the
  // surviving catalog.
  if (!calls.queries.empty() && !graphs.empty()) {
    core::LcpWorkspace ws;
    core::LcpCost cost;
    const double h0 = host_now();
    for (const auto& q : calls.queries) {
      for (const auto& g : graphs) (void)ws.run(q, g, &cost);
    }
    const double pairs = static_cast<double>(calls.queries.size()) *
                         static_cast<double>(graphs.size());
    const double ns_per_pair = (host_now() - h0) * 1e9 / pairs;
    out.layers["core.lcp_host_ns_per_pair"] = ns_per_pair;
    const double scanned = out.layers["core.lcp_models_scanned"] +
                           out.layers["baseline.redis_entries_scanned"];
    out.layers["core.lcp_host_share"] =
        ns_per_pair * scanned / (out.wall_s * 1e9);
  }

  if (d.h5 != nullptr && !calls.queries.empty()) {
    // Replay a few transfers one at a time, so the host time of each call
    // is that call's alone.
    const uint64_t reads0 = d.h5->io_stats().ranged_reads;
    const double h0 = host_now();
    auto replay = [&]() -> sim::CoTask<void> {
      for (size_t i = 0; i < std::min<size_t>(16, calls.queries.size()); ++i) {
        auto r = co_await d.h5->prepare_transfer(reader, calls.queries[i], true);
        out.ops.record(r.ok());
      }
    };
    cluster.sim.run_until_complete(replay());
    const uint64_t reads = d.h5->io_stats().ranged_reads - reads0;
    if (reads > 0) {
      out.layers["baseline.host_us_per_ranged_read"] =
          (host_now() - h0) * 1e6 / static_cast<double>(reads);
    }
  }

  if (d.evo != nullptr) {
    // Retiring the survivors must drain models, segments and bytes to zero.
    auto drain = [&]() -> sim::CoTask<void> {
      std::vector<uint64_t> ids;
      for (const auto& [id, identities] : calls.stored) ids.push_back(id);
      for (uint64_t id : ids) {
        (void)co_await repo.retire(reader, evostore::common::ModelId{id});
      }
    };
    cluster.sim.run_until_complete(drain());
    bool drained = d.evo->total_models() == 0 && d.evo->total_segments() == 0 &&
                   d.evo->stored_payload_bytes() == 0 &&
                   d.evo->stored_physical_bytes() == 0;
    if (!drained) std::fprintf(stderr, "repository did not drain to zero\n");
    out.ops.check(drained);
  }
}

}  // namespace

std::unique_ptr<Workload> make_nas_workload(const std::string& name,
                                            uint64_t seed) {
  if (name == "nas-transfer") {
    return std::make_unique<NasWorkload>(NasShape{true, 128, 1000}, seed);
  }
  if (name == "nas-hdf5") {
    return std::make_unique<NasWorkload>(NasShape{false, 16, 125}, seed);
  }
  return nullptr;
}

}  // namespace perfbench

// lcp-fanout and lcp-deep: a closed-loop storm of metadata-only LCP queries
// against a DeepSpace catalog (paper Fig. 5). Workers each wait for their
// reply before sending the next query; every query is broadcast to every
// provider and reduced on the client.
#include <algorithm>
#include <cstdio>
#include <tuple>

#include "common/rng.h"
#include "core/lcp.h"
#include "core/repository.h"
#include "obs/metrics.h"
#include "workload/deepspace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = evostore::core;
namespace model = evostore::model;
namespace sim = evostore::sim;
using evostore::common::ModelId;

struct LcpShape {
  int workers;  // providers = workers / 4
  int catalog;  // distinct models stored (each on k = 2 providers)
  int queries;  // >= 1000, so p99 has ten samples beyond it
};

struct Answer {
  bool ok = false;
  bool found = false;
  uint64_t ancestor = 0;
  size_t length = 0;
};

class LcpWorkload final : public Workload {
 public:
  LcpWorkload(LcpShape shape, uint64_t seed) : shape_(shape) {
    double t0 = host_now();
    evostore::workload::DeepSpace space;
    evostore::common::Xoshiro256 rng(evostore::common::hash_combine(seed, 1));
    std::vector<evostore::workload::DeepSpaceSeq> seqs;
    for (int i = 0; i < shape.catalog; ++i) {
      seqs.push_back(space.random(rng));
      catalog_.push_back(space.decode_graph(seqs.back()));
      // Sixteen quality levels: ties on length and quality both occur, so
      // the reduce exercises all three of its keys.
      quality_.push_back(static_cast<double>(rng.below(16)) / 16.0);
    }
    // Queries mutate random catalog members: lookups that share long
    // prefixes with some stored model.
    for (int q = 0; q < shape.queries; ++q) {
      const auto& parent = seqs[rng.below(seqs.size())];
      queries_.push_back(space.decode_graph(space.mutate(parent, rng)));
    }
    gen_host_s_ = host_now() - t0;
  }

  RoundOut round(const RoundOptions& options) override;

 private:
  /// Algorithm 1 over the whole catalog per query, reduced by longest
  /// prefix, then quality, then lower id; counts mismatches into `out.ops`
  /// and the replay's host cost into core.lcp_host_ns_per_pair.
  void verify(const std::vector<Answer>& answers,
              const std::vector<ModelId>& ids, RoundOut& out) const;

  LcpShape shape_;
  std::vector<model::ArchGraph> catalog_;
  std::vector<double> quality_;
  std::vector<model::ArchGraph> queries_;
};

RoundOut LcpWorkload::round(const RoundOptions& options) {
  RoundOut out;
  SpanLog& spans = *options.spans;
  const double h0 = host_now();
  Cluster cluster(shape_.workers);
  // Attached before the repository exists, so providers cache the shared
  // histogram pointers; the registry only records.
  evostore::obs::MetricsRegistry registry;
  evostore::obs::MetricsRegistry timed_registry;
  if (options.traced) cluster.rpc.set_metrics(&registry);
  core::ProviderConfig pcfg;
  pcfg.pool_bandwidth = 0;  // metadata-only
  core::EvoStoreRepository repo(cluster.rpc, cluster.provider_nodes, pcfg);
  for (auto node : cluster.provider_nodes) {
    cluster.rpc.set_service_pool(node, 4, 0.0);
  }
  const double h_populate = host_now();
  spans.add(Span{"setup", 0, cluster.sim.now(), h0, h_populate, 0, 0});

  std::vector<ModelId> ids;
  auto populate = [&]() -> sim::CoTask<void> {
    auto& client = repo.client(cluster.workers[0]);
    for (size_t i = 0; i < catalog_.size(); ++i) {
      model::Model m(repo.allocate_id(), catalog_[i]);
      m.set_quality(quality_[i]);
      auto st = co_await client.put_model(m, nullptr);
      out.ops.record(st.ok());
      ids.push_back(m.id());
    }
  };
  cluster.sim.run_until_complete(populate());
  const double h_timed = host_now();
  spans.add(Span{"populate", 0, cluster.sim.now(), h_populate, h_timed, 0, 0});
  out.setup_s.push_back(h_timed - h0);

  // ---- Timed phase ----
  if (options.traced) cluster.rpc.set_metrics(&timed_registry);
  const NetSnapshot net0 = snapshot_net(cluster);
  const core::ProviderStats core0 = sum_provider_stats(repo);
  const double t0 = cluster.sim.now();
  std::vector<double> latency(queries_.size(), 0.0);
  std::vector<Answer> answers(queries_.size());
  auto worker = [&](int w) -> sim::CoTask<void> {
    auto& client = repo.client(cluster.workers[w]);
    for (size_t q = w; q < queries_.size(); q += shape_.workers) {
      Span span{"query_lcp", cluster.sim.now(), 0, 0, 0, q,
                static_cast<uint64_t>(w)};
      if (spans.enabled()) span.host_start = host_now();
      auto r = co_await client.query_lcp(queries_[q]);
      span.sim_end = cluster.sim.now();
      if (spans.enabled()) span.host_end = host_now();
      spans.add(span);
      latency[q] = span.sim_end - span.sim_start;
      out.ops.record(r.ok() && !r->partial);
      if (r.ok()) {
        answers[q] = Answer{true, r->found, r->ancestor.value, r->lcp_len()};
      }
    }
  };
  std::vector<sim::Future<void>> futures;
  for (int w = 0; w < shape_.workers; ++w) {
    futures.push_back(cluster.sim.spawn(worker(w)));
  }
  cluster.sim.run();
  const double h_end = host_now();
  out.wall_s = h_end - h_timed;
  const double t1 = cluster.sim.now();
  spans.add(Span{"timed", t0, t1, h_timed, h_end, 0, 0});
  record_net(net0, snapshot_net(cluster), out);
  record_core(core0, sum_provider_stats(repo), repo, out);
  if (options.traced) record_registries(registry, timed_registry, out);

  // ---- Simulated results ----
  std::vector<double> latency_us;
  for (double s : latency) latency_us.push_back(s * 1e6);
  const auto n = latency_us.size();
  out.sim["sim_s"] = {t1 - t0, "s", n};
  out.sim["lcp_qps"] = {static_cast<double>(n) / (t1 - t0), "1/s", n};
  out.sim["lcp_p50_us"] = {percentile(latency_us, 0.5).value_or(0), "us", n};
  out.sim["lcp_p99_us"] = {percentile(latency_us, 0.99).value_or(0), "us", n};
  // The operation the end-to-end gate follows is query_lcp.
  out.sim["op_p50_ms"] = {out.sim["lcp_p50_us"].value / 1e3, "ms", n};
  out.sim["op_tail_ms"] = {
      percentile(latency_us, tail_quantile(n)).value_or(0) / 1e3, "ms", n};
  Digest digest;
  digest.add_f64(t1 - t0);
  for (size_t q = 0; q < n; ++q) {
    digest.add_f64(latency[q]);
    digest.add_u64(answers[q].found ? answers[q].ancestor : 0);
    digest.add_u64(answers[q].length);
  }
  digest.add_u64(static_cast<uint64_t>(out.layers["net.rpc_calls"]));
  digest.add_u64(static_cast<uint64_t>(out.layers["sim.events"]));
  out.digest = digest.value();

  if (options.verify) {
    const double hv = host_now();
    verify(answers, ids, out);
    spans.add(Span{"verify", t1, t1, hv, host_now(), 0, 0});
  }
  return out;
}

void LcpWorkload::verify(const std::vector<Answer>& answers,
                         const std::vector<ModelId>& ids,
                         RoundOut& out) const {
  core::LcpWorkspace ws;
  core::LcpCost cost;
  const double h0 = host_now();
  for (size_t q = 0; q < queries_.size(); ++q) {
    size_t best_len = 0;
    size_t best = 0;
    for (size_t i = 0; i < catalog_.size(); ++i) {
      size_t len = ws.run(queries_[q], catalog_[i], &cost).length();
      if (len == 0) continue;
      // Longest prefix, then higher quality, then lower id (ids ascend
      // with i, so the first of equals wins).
      if (best_len == 0 ||
          std::tie(len, quality_[i]) > std::tie(best_len, quality_[best])) {
        best_len = len;
        best = i;
      }
    }
    const Answer& a = answers[q];
    bool match = a.ok && a.found == (best_len > 0) &&
                 (!a.found || (a.ancestor == ids[best].value &&
                               a.length == best_len));
    if (!match) {
      std::fprintf(stderr, "query %zu: got (%d, %llu, %zu), oracle (%llu, %zu)\n",
                   q, a.found, static_cast<unsigned long long>(a.ancestor),
                   a.length, static_cast<unsigned long long>(ids[best].value),
                   best_len);
    }
    out.ops.check(match);
  }
  const double pairs =
      static_cast<double>(queries_.size()) * static_cast<double>(catalog_.size());
  const double ns_per_pair = (host_now() - h0) * 1e9 / pairs;
  out.layers["core.lcp_host_ns_per_pair"] = ns_per_pair;
  out.layers["core.lcp_host_share"] =
      ns_per_pair * out.layers["core.lcp_models_scanned"] / (out.wall_s * 1e9);
}

}  // namespace

std::unique_ptr<Workload> make_lcp_workload(const std::string& name,
                                            uint64_t seed) {
  if (name == "lcp-fanout") {
    return std::make_unique<LcpWorkload>(LcpShape{128, 1000, 1000}, seed);
  }
  if (name == "lcp-deep") {
    return std::make_unique<LcpWorkload>(LcpShape{8, 3000, 1000}, seed);
  }
  return nullptr;
}

}  // namespace perfbench

// Tracer unit tests plus the end-to-end span-link checks the observability
// layer promises: a client put_model span must be the ancestor of the
// provider-side segment_write and kv_commit spans (the context crossed the
// RPC wire), retries must appear as tagged attempt spans, and two identical
// seeded runs must export byte-identical trace + metrics files.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "net/fault.h"
#include "obs/metrics.h"
#include "tests/core/test_env.h"

namespace evostore::obs {
namespace {

using core::testing::ClusterEnv;
using core::testing::chain_graph;

TEST(Tracer, RootAndChildIds) {
  sim::Simulation sim;
  Tracer tracer(sim);
  Span root = tracer.begin("root", 3);
  Span child = tracer.begin("child", 4, root.context());
  child.end();
  root.end();

  const auto& recs = tracer.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].span_id, 1u);
  EXPECT_EQ(recs[0].trace_id, 1u);  // root starts its own trace
  EXPECT_EQ(recs[0].parent_span_id, 0u);
  EXPECT_EQ(recs[1].span_id, 2u);
  EXPECT_EQ(recs[1].trace_id, 1u);  // child inherits the trace
  EXPECT_EQ(recs[1].parent_span_id, 1u);
  EXPECT_EQ(recs[0].node, 3u);
  EXPECT_EQ(tracer.complete_count(), 2u);
}

TEST(Tracer, InertSpanIsNoOp) {
  Span inert;  // default-constructed
  EXPECT_FALSE(inert.active());
  EXPECT_FALSE(inert.context().valid());
  inert.tag("k", "v");
  inert.tag_u64("n", 7);
  inert.end();  // all no-ops, must not crash

  Span also_inert = Tracer::maybe_begin(nullptr, "x", 0);
  EXPECT_FALSE(also_inert.active());

  sim::Simulation sim;
  Tracer tracer(sim);
  Span a = tracer.begin("a", 0);
  Span b = std::move(a);
  EXPECT_FALSE(a.active());  // moved-from is inert  NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.active());
  b.end();
  b.end();  // idempotent
  EXPECT_EQ(tracer.complete_count(), 1u);
}

TEST(Tracer, IncompleteSpansSkippedInExport) {
  sim::Simulation sim;
  Tracer tracer(sim);
  Span done = tracer.begin("done", 1);
  done.end();
  // Still open while the export runs -> must be skipped.
  Span open = tracer.begin("still_open", 1);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"done\""), std::string::npos);
  EXPECT_EQ(json.find("\"still_open\""), std::string::npos);
  open.end();
}

// Walk parent links from `id` upward; true if `ancestor` is on the path.
bool has_ancestor(const std::map<uint64_t, const SpanRecord*>& by_id,
                  uint64_t id, uint64_t ancestor) {
  for (int hops = 0; hops < 64; ++hops) {
    auto it = by_id.find(id);
    if (it == by_id.end()) return false;
    if (it->second->span_id == ancestor) return true;
    id = it->second->parent_span_id;
    if (id == 0) return false;
  }
  return false;
}

TEST(Trace, PutModelLinksToProviderWritesAcrossRpc) {
  ClusterEnv env(3);
  Tracer tracer(env.sim);
  env.rpc.set_tracer(&tracer);

  auto m = model::Model::random(env.repo->allocate_id(), chain_graph(8, 16), 5);
  auto store = [&]() -> sim::CoTask<common::Status> {
    co_return co_await env.client().put_model(m, nullptr);
  };
  auto st = env.run(store());
  ASSERT_TRUE(st.ok()) << st.to_string();
  env.rpc.set_tracer(nullptr);

  std::map<uint64_t, const SpanRecord*> by_id;
  const SpanRecord* put_root = nullptr;
  for (const SpanRecord& r : tracer.records()) {
    by_id[r.span_id] = &r;
    if (r.name == "put_model") put_root = &r;
  }
  ASSERT_NE(put_root, nullptr);
  EXPECT_EQ(put_root->parent_span_id, 0u);  // it roots the trace

  size_t segment_writes = 0, kv_commits = 0, rpc_spans = 0, serve_spans = 0;
  for (const SpanRecord& r : tracer.records()) {
    EXPECT_TRUE(r.complete()) << r.name;
    if (r.name == "segment_write" || r.name == "kv_commit") {
      // The provider-side span must chain back to the client's put_model
      // root — the context crossed the RPC.
      EXPECT_EQ(r.trace_id, put_root->trace_id) << r.name;
      EXPECT_TRUE(has_ancestor(by_id, r.span_id, put_root->span_id)) << r.name;
      (r.name == "segment_write" ? segment_writes : kv_commits) += 1;
    }
    if (r.name.rfind("rpc:", 0) == 0) ++rpc_spans;
    if (r.name.rfind("serve:", 0) == 0) ++serve_spans;
  }
  EXPECT_GT(segment_writes, 0u);
  EXPECT_GT(kv_commits, 0u);
  EXPECT_GT(rpc_spans, 0u);
  EXPECT_GT(serve_spans, 0u);
}

TEST(Trace, TracingChangesNoWireBytesOrTimings) {
  // The trace context travels beside the message, not in it: a traced run
  // moves the same request/response bytes and finishes at the same
  // simulated instant as the untraced run.
  struct Run {
    double request_bytes, response_bytes, done_at;
    size_t spans;
  };
  auto run = [](bool traced) {
    ClusterEnv env(3);
    Tracer tracer(env.sim);
    if (traced) env.rpc.set_tracer(&tracer);
    auto m =
        model::Model::random(env.repo->allocate_id(), chain_graph(8, 16), 5);
    auto store_and_read = [&]() -> sim::CoTask<common::Status> {
      auto st = co_await env.client().put_model(m, nullptr);
      if (!st.ok()) co_return st;
      auto back = co_await env.client().get_model(m.id());
      co_return back.status();
    };
    EXPECT_TRUE(env.run(store_and_read()).ok());
    env.rpc.set_tracer(nullptr);
    return Run{env.rpc.stats().request_bytes, env.rpc.stats().response_bytes,
               env.sim.now(), tracer.records().size()};
  };
  Run plain = run(false);
  Run traced = run(true);
  EXPECT_EQ(plain.spans, 0u);
  EXPECT_GT(traced.spans, 0u);
  EXPECT_EQ(traced.request_bytes, plain.request_bytes);
  EXPECT_EQ(traced.response_bytes, plain.response_bytes);
  EXPECT_EQ(traced.done_at, plain.done_at);
}

TEST(Trace, RetryAttemptsAreTaggedSpans) {
  core::ClientConfig ccfg;
  ccfg.retry.max_attempts = 8;
  ccfg.retry.initial_backoff = 0.01;
  ccfg.fault_seed = 99;
  ClusterEnv env(3, {}, ccfg);

  net::FaultConfig fcfg;
  fcfg.seed = 99;
  fcfg.drop_probability = 0.25;
  fcfg.loss_detect_seconds = 0.05;
  net::FaultInjector injector(env.sim, fcfg);
  env.rpc.set_fault_injector(&injector);

  Tracer tracer(env.sim);
  env.rpc.set_tracer(&tracer);

  auto put_some = [&]() -> sim::CoTask<int> {
    int ok = 0;
    for (int i = 0; i < 6; ++i) {
      auto m = model::Model::random(env.repo->allocate_id(),
                                    chain_graph(6, 16, 1, 100 + i), 3);
      auto st = co_await env.client().put_model(m, nullptr);
      if (st.ok()) ++ok;
    }
    co_return ok;
  };
  int stored = env.run(put_some());
  EXPECT_GT(stored, 0);
  env.rpc.set_tracer(nullptr);
  env.rpc.set_fault_injector(nullptr);

  // With 25% drops some attempt span must carry attempt >= 2, and the
  // retried (non-final) attempt carries the backoff tag.
  bool saw_retry_attempt = false, saw_backoff = false;
  for (const SpanRecord& r : tracer.records()) {
    for (const auto& [k, v] : r.tags) {
      if (k == "attempt" && v != "1") saw_retry_attempt = true;
      if (k == "backoff_seconds") saw_backoff = true;
    }
  }
  EXPECT_TRUE(saw_retry_attempt);
  EXPECT_TRUE(saw_backoff);
}

// One fully-instrumented scenario; returns (chrome trace, metrics JSON).
std::pair<std::string, std::string> traced_scenario(uint64_t fault_seed) {
  core::ClientConfig ccfg;
  if (fault_seed != 0) {
    ccfg.retry.max_attempts = 8;
    ccfg.retry.initial_backoff = 0.01;
    ccfg.fault_seed = fault_seed;
  }
  MetricsRegistry registry;
  sim::Simulation sim;
  net::Fabric fabric(sim,
                     net::FabricConfig{.latency = 1.5e-6, .local_latency = 2e-7});
  net::RpcSystem rpc(fabric);
  // Attach metrics BEFORE the repository so providers/clients cache the
  // shared histogram pointers at construction (mirrors bench::Observability).
  rpc.set_metrics(&registry);
  Tracer tracer(sim);
  rpc.set_tracer(&tracer);

  std::vector<common::NodeId> providers;
  for (int i = 0; i < 3; ++i) providers.push_back(fabric.add_node(25e9, 25e9));
  common::NodeId worker = fabric.add_node(25e9, 25e9);

  std::optional<net::FaultInjector> injector;
  if (fault_seed != 0) {
    net::FaultConfig fcfg;
    fcfg.seed = fault_seed;
    fcfg.drop_probability = 0.1;
    fcfg.loss_detect_seconds = 0.05;
    injector.emplace(sim, fcfg);
    rpc.set_fault_injector(&*injector);
  }

  core::EvoStoreRepository repo(rpc, providers, {},
                                std::vector<storage::KvStore*>{}, ccfg);
  auto scenario = [&]() -> sim::CoTask<void> {
    auto& cli = repo.client(worker);
    auto base = model::Model::random(repo.allocate_id(), chain_graph(8, 16), 1);
    (void)co_await cli.put_model(base, nullptr);
    (void)co_await cli.query_lcp(chain_graph(8, 16, 2));
    (void)co_await cli.get_model(base.id());
    (void)co_await cli.collect_stats();
  };
  sim.run_until_complete(scenario());
  rpc.set_tracer(nullptr);
  rpc.set_fault_injector(nullptr);
  rpc.set_metrics(nullptr);

  std::ostringstream trace_os, metrics_os;
  tracer.write_chrome_trace(trace_os);
  registry.write_json(metrics_os);
  return {trace_os.str(), metrics_os.str()};
}

TEST(Trace, IdenticalRunsExportByteIdenticalFiles) {
  auto a = traced_scenario(0);
  auto b = traced_scenario(0);
  EXPECT_EQ(a.first, b.first);    // chrome trace
  EXPECT_EQ(a.second, b.second);  // metrics JSON
  EXPECT_NE(a.first.find("\"put_model\""), std::string::npos);
  EXPECT_NE(a.first.find("\"lcp_query\""), std::string::npos);
}

TEST(Trace, IdenticalFaultRunsExportByteIdenticalFiles) {
  auto a = traced_scenario(1234);
  auto b = traced_scenario(1234);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  // Different fault seed -> different schedule -> different trace.
  auto c = traced_scenario(77);
  EXPECT_NE(a.first, c.first);
}

TEST(Trace, CollectStatsMergesProviderHistograms) {
  ClusterEnv env(4);
  auto put_some = [&]() -> sim::CoTask<common::Status> {
    for (int i = 0; i < 4; ++i) {
      auto m = model::Model::random(env.repo->allocate_id(),
                                    chain_graph(6, 16, 1, 50 + i), 2);
      auto st = co_await env.client().put_model(m, nullptr);
      if (!st.ok()) co_return st;
    }
    co_return common::Status::Ok();
  };
  ASSERT_TRUE(env.run(put_some()).ok());

  auto stats = env.run(env.client().collect_stats());
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->per_provider.size(), 4u);

  // Every provider exports its local registry; the merged totals must carry
  // a put-latency digest whose count equals the sum of the parts.
  uint64_t put_count_parts = 0;
  for (const auto& p : stats->per_provider) {
    for (const auto& h : p.histograms) {
      if (h.name == "put.seconds") put_count_parts += h.count;
    }
  }
  EXPECT_GT(put_count_parts, 0u);
  const core::wire::HistogramSummaryEntry* merged = nullptr;
  for (const auto& h : stats->totals.histograms) {
    if (h.name == "put.seconds") merged = &h;
  }
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count, put_count_parts);
  EXPECT_GT(merged->max, 0.0);
  // Totals are name-sorted (deterministic export order).
  for (size_t i = 1; i < stats->totals.histograms.size(); ++i) {
    EXPECT_LT(stats->totals.histograms[i - 1].name,
              stats->totals.histograms[i].name);
  }
}

}  // namespace
}  // namespace evostore::obs

// Micro-benchmarks for Algorithm 1 (LCP) — the provider-side inner loop of
// every collective metadata query.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/lcp.h"
#include "tests/core/test_env.h"
#include "workload/deepspace.h"

namespace {

using namespace evostore;
using core::testing::chain_graph;

void BM_LcpIdenticalChain(benchmark::State& state) {
  auto g = chain_graph(static_cast<int>(state.range(0)), 64);
  core::LcpWorkspace ws;
  for (auto _ : state) {
    auto r = ws.run(g, g, nullptr);
    benchmark::DoNotOptimize(r.matches.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LcpIdenticalChain)->Arg(10)->Arg(100)->Arg(1000);

void BM_LcpRootMismatch(benchmark::State& state) {
  // The dominant case in large catalog scans: rejected at the root.
  auto g = chain_graph(100, 64);
  auto a = chain_graph(100, 48);
  core::LcpWorkspace ws;
  for (auto _ : state) {
    auto r = ws.run(g, a, nullptr);
    benchmark::DoNotOptimize(r.matches.data());
  }
}
BENCHMARK(BM_LcpRootMismatch);

void BM_LcpHalfPrefix(benchmark::State& state) {
  int layers = static_cast<int>(state.range(0));
  auto g = chain_graph(layers, 64);
  auto a = chain_graph(layers, 64, layers / 2);
  core::LcpWorkspace ws;
  for (auto _ : state) {
    auto r = ws.run(g, a, nullptr);
    benchmark::DoNotOptimize(r.matches.data());
  }
}
BENCHMARK(BM_LcpHalfPrefix)->Arg(20)->Arg(100);

void BM_LcpDeepSpacePair(benchmark::State& state) {
  // Realistic branchy/nested graphs, mutated pairs (the Fig. 5 workload).
  workload::DeepSpace space;
  common::Xoshiro256 rng(1);
  std::vector<std::pair<model::ArchGraph, model::ArchGraph>> pairs;
  for (int i = 0; i < 64; ++i) {
    auto s = space.random(rng);
    pairs.emplace_back(space.decode_graph(space.mutate(s, rng)),
                       space.decode_graph(s));
  }
  core::LcpWorkspace ws;
  size_t i = 0;
  for (auto _ : state) {
    auto& [g, a] = pairs[i++ % pairs.size()];
    auto r = ws.run(g, a, nullptr);
    benchmark::DoNotOptimize(r.matches.data());
  }
}
BENCHMARK(BM_LcpDeepSpacePair);

void BM_LcpCatalogScan(benchmark::State& state) {
  // One provider-side scan, through the function the provider serves it
  // with: a query graph against N stored graphs, reduced by lcp_outranks,
  // with the pairs copied out only for a model that beats the best so far.
  workload::DeepSpace space;
  common::Xoshiro256 rng(2);
  std::vector<model::ArchGraph> catalog;
  for (int64_t i = 0; i < state.range(0); ++i) {
    catalog.push_back(space.decode_graph(space.random(rng)));
  }
  std::vector<core::LcpCandidate> rows;
  for (size_t i = 0; i < catalog.size(); ++i) {
    rows.push_back({common::ModelId::make(1, static_cast<uint32_t>(i + 1)),
                    &catalog[i], static_cast<double>(i % 16) / 16.0});
  }
  auto query = space.decode_graph(space.random(rng));
  core::LcpWorkspace ws;
  for (auto _ : state) {
    core::LcpBest best = core::scan_candidates(query, rows, ws, nullptr);
    benchmark::DoNotOptimize(best.matches.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LcpCatalogScan)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LcpWorkspaceVsFresh(benchmark::State& state) {
  auto g = chain_graph(50, 64);
  auto a = chain_graph(50, 64, 10);
  if (state.range(0) == 0) {
    core::LcpWorkspace ws;
    for (auto _ : state) {
      benchmark::DoNotOptimize(ws.run(g, a, nullptr).length());
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(core::longest_common_prefix(g, a).length());
    }
  }
}
BENCHMARK(BM_LcpWorkspaceVsFresh)->Arg(0)->Arg(1);

}  // namespace

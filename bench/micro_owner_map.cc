// Micro-benchmarks for owner-map operations (derive, group, serialize) —
// the metadata path of every put/get/retire.
#include <benchmark/benchmark.h>

#include "common/fields.h"
#include "core/owner_map.h"

namespace {

using namespace evostore;
using common::ModelId;
using common::VertexId;
using core::OwnerMap;

OwnerMap make_mixed_map(size_t vertices, int owners) {
  OwnerMap map = OwnerMap::self_owned(ModelId::make(1, 1), vertices);
  for (VertexId v = 0; v < vertices; ++v) {
    map.set_entry(v, {ModelId::make(1, 1 + v % owners), v});
  }
  return map;
}

void BM_OwnerMapSelfOwned(benchmark::State& state) {
  for (auto _ : state) {
    auto m = OwnerMap::self_owned(ModelId::make(1, 1),
                                  static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(m.size());
  }
}
BENCHMARK(BM_OwnerMapSelfOwned)->Arg(100)->Arg(10000);

void BM_OwnerMapDerive(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  OwnerMap parent = OwnerMap::self_owned(ModelId::make(1, 1), n);
  std::vector<std::pair<VertexId, VertexId>> matches;
  for (VertexId v = 0; v < n / 2; ++v) matches.emplace_back(v, v);
  for (auto _ : state) {
    auto m = OwnerMap::derive(ModelId::make(1, 2), n, parent, matches);
    benchmark::DoNotOptimize(m.size());
  }
}
BENCHMARK(BM_OwnerMapDerive)->Arg(100)->Arg(10000);

void BM_OwnerMapByOwner(benchmark::State& state) {
  auto map = make_mixed_map(static_cast<size_t>(state.range(0)), 16);
  for (auto _ : state) {
    auto groups = map.by_owner();
    benchmark::DoNotOptimize(groups.size());
  }
}
BENCHMARK(BM_OwnerMapByOwner)->Arg(100)->Arg(10000);

void BM_OwnerMapContributors(benchmark::State& state) {
  auto map = make_mixed_map(static_cast<size_t>(state.range(0)), 16);
  for (auto _ : state) {
    auto c = map.contributors();
    benchmark::DoNotOptimize(c.size());
  }
}
BENCHMARK(BM_OwnerMapContributors)->Arg(100)->Arg(1000);

void BM_OwnerMapSerde(benchmark::State& state) {
  auto map = make_mixed_map(static_cast<size_t>(state.range(0)), 16);
  for (auto _ : state) {
    common::Bytes bytes = common::encode(map);
    common::Deserializer d(bytes);
    auto out = common::decode<OwnerMap>(d);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(map.metadata_bytes()));
}
BENCHMARK(BM_OwnerMapSerde)->Arg(100)->Arg(10000);

}  // namespace

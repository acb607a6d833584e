// Micro-benchmarks for the model layer: flattening, canonical hashing,
// serialization — the metadata costs behind every query and put.
#include <benchmark/benchmark.h>

#include "common/fields.h"
#include "model/model.h"
#include "nas/attn_space.h"
#include "workload/deepspace.h"

namespace {

using namespace evostore;

void BM_FlattenDeepSpace(benchmark::State& state) {
  workload::DeepSpace space;
  common::Xoshiro256 rng(1);
  std::vector<workload::DeepSpaceSeq> seqs;
  for (int i = 0; i < 64; ++i) seqs.push_back(space.random(rng));
  size_t i = 0;
  for (auto _ : state) {
    auto arch = space.decode(seqs[i++ % seqs.size()]);
    auto g = model::ArchGraph::flatten(arch);
    benchmark::DoNotOptimize(g.ok());
  }
}
BENCHMARK(BM_FlattenDeepSpace);

void BM_DecodeAttnCandidate(benchmark::State& state) {
  nas::AttnSearchSpace space;
  common::Xoshiro256 rng(2);
  std::vector<nas::CandidateSeq> seqs;
  for (int i = 0; i < 64; ++i) seqs.push_back(space.random(rng));
  size_t i = 0;
  for (auto _ : state) {
    auto g = space.decode(seqs[i++ % seqs.size()]);
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_DecodeAttnCandidate);

void BM_LayerSignature(benchmark::State& state) {
  auto def = model::make_attention(1024, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(def.signature());
  }
}
BENCHMARK(BM_LayerSignature);

void BM_GraphSerde(benchmark::State& state) {
  workload::DeepSpace space;
  common::Xoshiro256 rng(3);
  auto g = space.decode_graph(space.random(rng));
  for (auto _ : state) {
    common::Bytes bytes = common::encode(g);
    common::Deserializer d(bytes);
    auto out = common::decode<model::ArchGraph>(d);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_GraphSerde);

void BM_RandomModelCreation(benchmark::State& state) {
  nas::AttnSearchSpace space;
  common::Xoshiro256 rng(4);
  auto g = space.decode(space.random(rng));
  uint64_t seed = 0;
  for (auto _ : state) {
    auto m = model::Model::random(common::ModelId::make(1, 1), g, ++seed);
    benchmark::DoNotOptimize(m.total_bytes());
  }
}
BENCHMARK(BM_RandomModelCreation);

void BM_SegmentSerde(benchmark::State& state) {
  auto g = nas::AttnSearchSpace().decode(
      nas::CandidateSeq(nas::AttnSearchSpace().positions(), 1));
  auto m = model::Model::random(common::ModelId::make(1, 1), g, 1);
  // Pick the largest segment.
  common::VertexId big = 0;
  for (common::VertexId v = 0; v < m.vertex_count(); ++v) {
    if (m.segment(v).nbytes() > m.segment(big).nbytes()) big = v;
  }
  for (auto _ : state) {
    common::Bytes bytes = common::encode(m.segment(big));
    common::Deserializer d(bytes);
    auto out = common::decode<model::Segment>(d);
    benchmark::DoNotOptimize(out.nbytes());
  }
}
BENCHMARK(BM_SegmentSerde);

}  // namespace

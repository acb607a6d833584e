// Ablation — content-defined chunk dedup (DESIGN.md §13).
//
// The delta codec (PR 1) only deduplicates along ancestor edges: a model
// must name its base for shared bytes to collapse. This sweep builds the
// workload that defeats it — F model families whose roots share a
// byte-identical pretrained backbone but are stored as *unrelated* models
// (no TransferContext, so no owner-map or delta link ties them together) —
// and measures how much of that cross-lineage redundancy the provider-side
// chunk store recovers. Each family also derives C fine-tuned children via
// the normal transfer path, so dedup is measured composing with owner-map
// sharing, delta encoding, and refcount GC rather than in isolation.
//
// Reported: physical bytes with the delta codec alone (pre-dedup) vs. with
// chunk dedup (deduped), their ratio, and the chunk-store counters — both
// from direct provider introspection and through the GetStats RPC path so
// the wire plumbing is exercised too. The expected ratio is roughly
// (families / providers) on backbone bytes: each provider stores the shared
// backbone's chunks once however many of its resident roots carry them.
//
// Flags:
//   --gpus N             cluster size; providers = ceil(N/4)   (default 16)
//   --families N         unrelated roots sharing one backbone  (default 24)
//   --children N         fine-tuned children per family        (default 3)
//   --backbone-layers N  dense layers in the shared backbone   (default 12)
//   --head-layers N      family-specific head layers           (default 2)
//   --width N            layer width                           (default 48)
//   --retire-families N  families retired at the end (chunk GC) (default 1)
//   --verify             read every surviving model back and require
//                        bit-identical content (exit 1 on any mismatch)
//   --no-dedup           disable chunking (baseline sanity: deduped ==
//                        pre-dedup physical)
//   --metrics-out FILE   JSON metrics snapshot (chunk.hits/misses etc.)
#include <cstdio>
#include <vector>

#include "bench/nas_bench.h"
#include "model/layer.h"

using namespace evostore;

namespace {

// input(width) + `layers` dense layers; `salt` != 0 makes the final layers
// family-specific so children belong to a recognizable family head.
model::ArchGraph build_chain(int layers, int64_t width, int head_layers,
                             int64_t salt) {
  std::vector<model::LayerDef> defs;
  defs.push_back(model::make_input(width));
  for (int i = 0; i < layers; ++i) defs.push_back(model::make_dense(width, width));
  for (int i = 0; i < head_layers; ++i) {
    int64_t w = salt == 0 ? width : width + salt + i;
    defs.push_back(model::make_dense(width, w));
  }
  auto g = model::ArchGraph::flatten(model::make_chain(std::move(defs)));
  return std::move(g).value();
}

}  // namespace

int main(int argc, char** argv) {
  int gpus = bench::arg_int(argc, argv, "--gpus", 16);
  int families = bench::arg_int(argc, argv, "--families", 24);
  int children = bench::arg_int(argc, argv, "--children", 3);
  int backbone_layers = bench::arg_int(argc, argv, "--backbone-layers", 12);
  int head_layers = bench::arg_int(argc, argv, "--head-layers", 2);
  int64_t width = bench::arg_int(argc, argv, "--width", 48);
  int retire_families = bench::arg_int(argc, argv, "--retire-families", 1);
  bool verify = bench::arg_flag(argc, argv, "--verify");
  bool no_dedup = bench::arg_flag(argc, argv, "--no-dedup");
  bench::Observability obs = bench::Observability::from_args(argc, argv);

  bench::Cluster cluster(gpus);
  obs.attach(cluster);
  core::ProviderConfig pcfg;
  pcfg.chunking = !no_dedup;
  pcfg.chunker = bench::sim_scale_chunker();
  core::ClientConfig ccfg;
  ccfg.put_codec = compress::CodecId::kDeltaVsAncestor;
  core::EvoStoreRepository repo(cluster.rpc, cluster.provider_nodes, pcfg, {},
                                ccfg);
  core::Client& cli = repo.client(cluster.workers[0]);

  bench::print_header("Ablation", "content-defined chunk dedup");
  std::printf("%d provider(s), %d families x (1 root + %d children), "
              "backbone %d x %lld, dedup %s\n\n",
              static_cast<int>(cluster.provider_nodes.size()), families,
              children, backbone_layers, static_cast<long long>(width),
              no_dedup ? "OFF" : "on");

  // Every family root is Model::random over the SAME graph with the SAME
  // seed: byte-identical backbone + head content, stored as unrelated
  // models. Children go through prepare_transfer/put_model like any derived
  // model: inherited prefix by reference, fine-tuned head self-owned.
  constexpr uint64_t kBackboneSeed = 7;
  std::vector<model::Model> stored;  // in-memory copies for --verify
  size_t stored_per_family = 1 + static_cast<size_t>(children);
  auto run = [&]() -> sim::CoTask<int> {
    for (int f = 0; f < families; ++f) {
      auto root_graph = build_chain(backbone_layers, width, 0, 0);
      auto root = model::Model::random(repo.allocate_id(),
                                       std::move(root_graph), kBackboneSeed);
      root.set_quality(0.5);
      auto st = co_await cli.put_model(root, nullptr);
      if (!st.ok()) {
        std::printf("FATAL: root put failed: %s\n", st.to_string().c_str());
        co_return 1;
      }
      stored.push_back(std::move(root));
      for (int c = 0; c < children; ++c) {
        auto child_graph = build_chain(backbone_layers, width, head_layers,
                                       /*salt=*/7 + f);
        auto prep = co_await cli.prepare_transfer(child_graph, true);
        if (!prep.ok() || !prep->has_value()) {
          std::printf("FATAL: prepare_transfer failed\n");
          co_return 1;
        }
        auto tc = std::move(prep->value());
        auto child = model::Model::random(
            repo.allocate_id(), std::move(child_graph),
            /*seed=*/1000 + static_cast<uint64_t>(f) * 100 +
                static_cast<uint64_t>(c));
        for (size_t i = 0; i < tc.matches.size(); ++i) {
          child.segment(tc.matches[i].first) = tc.prefix_segments[i];
        }
        child.set_quality(0.6);
        st = co_await cli.put_model(child, &tc);
        if (!st.ok()) {
          std::printf("FATAL: child put failed: %s\n", st.to_string().c_str());
          co_return 1;
        }
        stored.push_back(std::move(child));
      }
    }
    co_return 0;
  };
  if (int rc = cluster.sim.run_until_complete(run()); rc != 0) return rc;

  size_t pre = repo.stored_pre_dedup_physical_bytes();
  size_t post = repo.stored_physical_bytes();
  double ratio = post == 0 ? 0.0
                           : static_cast<double>(pre) / static_cast<double>(post);
  std::printf("%-34s %14zu\n", "logical bytes", repo.stored_payload_bytes());
  std::printf("%-34s %14zu\n", "physical, delta alone (pre-dedup)", pre);
  std::printf("%-34s %14zu\n", "physical, deduped", post);
  std::printf("%-34s %14.2fx\n", "dedup ratio", ratio);
  std::printf("%-34s %14zu\n", "live chunks", repo.total_chunks());
  std::printf("%-34s %14llu\n", "dedup saved bytes",
              static_cast<unsigned long long>(repo.total_dedup_saved_bytes()));

  // Same numbers through the RPC path (the monitoring view): collect_stats
  // fans GetStats out over every provider and merges.
  auto stats = cluster.sim.run_until_complete(
      repo.collect_stats(cluster.workers[0]));
  if (!stats.ok()) {
    std::printf("FATAL: collect_stats failed\n");
    return 1;
  }
  const auto& dedup = stats->totals.dedup;
  const auto& live = stats->totals.live;
  std::printf("\nvia GetStats: hits %llu, misses %llu, freed %llu, "
              "physical %llu (pre-dedup %llu)\n",
              static_cast<unsigned long long>(dedup.hits),
              static_cast<unsigned long long>(dedup.misses),
              static_cast<unsigned long long>(dedup.freed),
              static_cast<unsigned long long>(live.physical_bytes),
              static_cast<unsigned long long>(live.pre_dedup_physical_bytes));
  if (live.physical_bytes != post || live.pre_dedup_physical_bytes != pre) {
    std::printf("FATAL: RPC-path stats disagree with direct introspection\n");
    return 1;
  }

  // Retire whole families (root + children) to drive chunk refcounts down
  // the same cascade as segment GC; survivors must stay readable.
  int retired = 0;
  if (retire_families > 0) {
    auto drain = [&]() -> sim::CoTask<int> {
      int ok = 0;
      size_t n = std::min(static_cast<size_t>(retire_families) *
                              stored_per_family,
                          stored.size());
      for (size_t i = stored.size() - n; i < stored.size(); ++i) {
        auto st = co_await cli.retire(stored[i].id());
        if (st.ok()) ++ok;
      }
      co_return ok;
    };
    retired = cluster.sim.run_until_complete(drain());
    size_t keep = stored.size() -
                  std::min(static_cast<size_t>(retire_families) *
                               stored_per_family,
                           stored.size());
    stored.resize(keep);
    uint64_t freed = 0;
    for (size_t i = 0; i < repo.provider_count(); ++i) {
      freed += repo.provider(i).chunk_store().stats().freed;
    }
    std::printf("\nretired %d model(s): %llu chunk(s) freed, "
                "%zu live, physical %zu\n",
                retired, static_cast<unsigned long long>(freed),
                repo.total_chunks(), repo.stored_physical_bytes());
  }

  if (verify) {
    auto check = [&]() -> sim::CoTask<int> {
      int bad = 0;
      for (const model::Model& want : stored) {
        auto got = co_await cli.get_model(want.id());
        if (!got.ok()) {
          std::printf("verify: load %s FAILED: %s\n",
                      want.id().to_string().c_str(),
                      got.status().to_string().c_str());
          ++bad;
          continue;
        }
        for (size_t v = 0; v < want.vertex_count(); ++v) {
          if (!got->segment(static_cast<common::VertexId>(v))
                   .content_equals(
                       want.segment(static_cast<common::VertexId>(v)))) {
            std::printf("verify: %s vertex %zu content MISMATCH\n",
                        want.id().to_string().c_str(), v);
            ++bad;
            break;
          }
        }
      }
      co_return bad;
    };
    int bad = cluster.sim.run_until_complete(check());
    std::printf("\nverify: %zu model(s) read back, %d mismatch(es)\n",
                stored.size(), bad);
    if (bad != 0) return 1;
  }

  obs.detach(cluster);
  obs.finish();
  return 0;
}

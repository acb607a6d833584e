#include "baseline/hdf5_pfs.h"

#include <gtest/gtest.h>

#include "tests/core/test_env.h"

namespace evostore::baseline {
namespace {

using common::NodeId;
using core::testing::chain_graph;
using core::testing::widths_graph;
using sim::CoTask;

struct H5Env {
  sim::Simulation sim;
  net::Fabric fabric;
  net::RpcSystem rpc;
  NodeId client;
  NodeId redis_node;
  std::unique_ptr<storage::Pfs> pfs;
  std::unique_ptr<RedisQueries> redis;
  std::unique_ptr<Hdf5PfsRepository> repo;

  explicit H5Env(bool with_redis = true)
      : fabric(sim, net::FabricConfig{}), rpc(fabric) {
    client = fabric.add_node(25e9, 25e9);
    redis_node = fabric.add_node(25e9, 25e9);
    storage::PfsConfig cfg;
    cfg.ost_count = 16;
    cfg.aggregate_bandwidth = 16e9;
    pfs = std::make_unique<storage::Pfs>(fabric, cfg);
    if (with_redis) {
      redis = std::make_unique<RedisQueries>(rpc, redis_node);
    }
    repo = std::make_unique<Hdf5PfsRepository>(*pfs, redis.get());
  }

  template <typename T>
  T run(CoTask<T> t) {
    return sim.run_until_complete(std::move(t));
  }
};

TEST(Hdf5Pfs, StoreLoadRoundTrip) {
  H5Env env;
  auto g = chain_graph(5, 16);
  auto m = model::Model::random(env.repo->allocate_id(), g, 3);
  m.set_quality(0.45);
  auto store_task = [&]() -> CoTask<common::Status> {
    co_return co_await env.repo->store(env.client, m, nullptr);
  };
  ASSERT_TRUE(env.run(store_task()).ok());
  EXPECT_EQ(env.repo->stored_payload_bytes(), 0u + env.pfs->stored_bytes());
  EXPECT_GT(env.pfs->stored_bytes(), m.total_bytes());  // payload + TOC

  auto loaded = env.run(env.repo->load(env.client, m.id()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->graph().graph_hash(), g.graph_hash());
  EXPECT_NEAR(loaded->quality(), 0.45, 1e-6);
  for (common::VertexId v = 0; v < g.size(); ++v) {
    EXPECT_TRUE(loaded->segment(v).content_equals(m.segment(v))) << v;
  }
}

std::string hex(std::span<const std::byte> b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte x : b) {
    auto v = static_cast<unsigned>(x);
    out += kDigits[v >> 4];
    out += kDigits[v & 15];
  }
  return out;
}

common::Bytes unhex(const std::string& s) {
  common::Bytes out;
  for (size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(
        static_cast<std::byte>(std::stoi(s.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// The file's TOC extent, which carries the encoded graph as its `arch`
// attribute, exactly as older builds wrote it.
constexpr const char* kPinnedToc =
    "b590d9aa040102046172636820020000010364696d0800010003046269617302"
    "02696e08036f75740800010100077175616c69747908302e3530303030300214"
    "2f6d6f64656c5f776569676874732f76312f74300002080840142f6d6f64656c"
    "5f776569676874732f76312f743100010810";
constexpr const char* kPinnedArch =
    "020000010364696d080001000304626961730202696e08036f75740800010100";

TEST(Hdf5Pfs, PinnedTocAndArchAttribute) {
  H5Env env(/*with_redis=*/false);
  auto m = model::Model::random(ModelId::make(1, 7), chain_graph(1, 4), 3);
  m.set_quality(0.5);
  ASSERT_TRUE(env.run(env.repo->store(env.client, m, nullptr)).ok());
  const auto* extents = env.pfs->peek(RedisQueries::weights_path(m.id()));
  ASSERT_NE(extents, nullptr);
  EXPECT_EQ(hex((*extents)[0].dense_span()), kPinnedToc);
  auto reader = storage::H5Reader::open(*extents);
  ASSERT_TRUE(reader.ok());
  std::string arch = reader->attr("arch").value();
  EXPECT_EQ(hex(std::as_bytes(std::span(arch))), kPinnedArch);

  // A file whose TOC an older build wrote loads back into the same model.
  std::vector<common::Buffer> older = *extents;
  older[0] = common::Buffer::dense(unhex(kPinnedToc));
  ASSERT_TRUE(env.run(env.pfs->write(
                          env.client, RedisQueries::weights_path(m.id()),
                          std::move(older)))
                  .ok());
  auto loaded = env.run(env.repo->load(env.client, m.id()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->graph().graph_hash(), m.graph().graph_hash());
  EXPECT_EQ(loaded->quality(), 0.5);
  for (common::VertexId v = 0; v < m.vertex_count(); ++v) {
    EXPECT_TRUE(loaded->segment(v).content_equals(m.segment(v))) << v;
  }
}

TEST(Hdf5Pfs, LoadMissingModel) {
  H5Env env;
  auto r = env.run(env.repo->load(env.client, ModelId::make(1, 42)));
  EXPECT_EQ(r.status().code(), common::ErrorCode::kNotFound);
}

TEST(Hdf5Pfs, NoDeduplicationAcrossDerivedModels) {
  // The defining weakness vs EvoStore: every store writes the full model.
  H5Env env;
  auto g = chain_graph(6, 32);
  auto m1 = model::Model::random(env.repo->allocate_id(), g, 1);
  auto m2 = model::Model::random(env.repo->allocate_id(), chain_graph(6, 32, 1), 2);
  auto store2 = [&]() -> CoTask<void> {
    (void)co_await env.repo->store(env.client, m1, nullptr);
    (void)co_await env.repo->store(env.client, m2, nullptr);
  };
  env.run(store2());
  EXPECT_GE(env.pfs->stored_bytes(), m1.total_bytes() + m2.total_bytes());
}

TEST(Hdf5Pfs, PrepareTransferWithoutRedisFindsNothing) {
  H5Env env(/*with_redis=*/false);
  auto g = chain_graph(4, 16);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  auto task = [&]() -> CoTask<bool> {
    (void)co_await env.repo->store(env.client, m, nullptr);
    auto r = co_await env.repo->prepare_transfer(env.client, g, true);
    EXPECT_TRUE(r.ok());
    co_return r->has_value();
  };
  EXPECT_FALSE(env.run(task()));
  EXPECT_EQ(env.repo->name(), "HDF5+PFS");
}

TEST(Hdf5Pfs, PrepareTransferViaRedisReturnsPrefixPayload) {
  H5Env env;
  auto base_g = widths_graph({16, 16, 16, 16, 20});
  auto m = model::Model::random(env.repo->allocate_id(), base_g, 7);
  m.set_quality(0.5);
  auto task = [&]() -> CoTask<bool> {
    auto st = co_await env.repo->store(env.client, m, nullptr);
    EXPECT_TRUE(st.ok()) << st.to_string();
    auto query_g = widths_graph({16, 16, 16, 16, 40});
    auto r = co_await env.repo->prepare_transfer(env.client, query_g, true);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    if (!r.ok() || !r->has_value()) co_return false;
    auto& tc = r->value();
    EXPECT_EQ(tc.ancestor, m.id());
    EXPECT_EQ(tc.lcp_len(), 4u);
    EXPECT_EQ(tc.prefix_segments.size(), 4u);
    for (size_t i = 0; i < tc.matches.size(); ++i) {
      EXPECT_TRUE(tc.prefix_segments[i].content_equals(
          m.segment(tc.matches[i].second)));
    }
    co_return true;
  };
  EXPECT_TRUE(env.run(task()));
  EXPECT_GT(env.repo->io_stats().ranged_reads, 1u);  // TOC + per-tensor reads
}

TEST(Hdf5Pfs, RetireRemovesFileWhenLastReferenceDropped) {
  H5Env env;
  auto g = chain_graph(4, 16);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  auto task = [&]() -> CoTask<common::Status> {
    (void)co_await env.repo->store(env.client, m, nullptr);
    co_return co_await env.repo->retire(env.client, m.id());
  };
  ASSERT_TRUE(env.run(task()).ok());
  EXPECT_EQ(env.pfs->stored_bytes(), 0u);
  EXPECT_EQ(env.pfs->file_count(), 0u);
}

TEST(Hdf5Pfs, RetireWithoutRedisDeletesDirectly) {
  H5Env env(/*with_redis=*/false);
  auto g = chain_graph(3, 16);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  auto task = [&]() -> CoTask<common::Status> {
    (void)co_await env.repo->store(env.client, m, nullptr);
    co_return co_await env.repo->retire(env.client, m.id());
  };
  ASSERT_TRUE(env.run(task()).ok());
  EXPECT_EQ(env.pfs->file_count(), 0u);
}

TEST(Hdf5Pfs, StorePaysStagingAndPfsTime) {
  H5Env env;
  auto g = chain_graph(8, 256);  // ~2 MB model
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  auto task = [&]() -> CoTask<double> {
    double t0 = env.sim.now();
    (void)co_await env.repo->store(env.client, m, nullptr);
    co_return env.sim.now() - t0;
  };
  double secs = env.run(task());
  // Must include at least the context setup (2 ms).
  EXPECT_GT(secs, 2e-3);
  EXPECT_GT(env.repo->io_stats().staged_bytes, 0.0);
}

TEST(Hdf5Pfs, FullLoadSlowerThanPrefixReadForSmallPrefix) {
  H5Env env;
  auto base_g = widths_graph({64, 512, 512, 512, 512, 512, 64});
  auto m = model::Model::random(env.repo->allocate_id(), base_g, 1);
  m.set_quality(0.5);
  auto task = [&]() -> CoTask<std::pair<double, double>> {
    (void)co_await env.repo->store(env.client, m, nullptr);
    double t0 = env.sim.now();
    (void)co_await env.repo->load(env.client, m.id());
    double load_time = env.sim.now() - t0;
    // Query with a graph sharing only the first two vertices.
    auto query_g = widths_graph({64, 512, 99});
    t0 = env.sim.now();
    auto r = co_await env.repo->prepare_transfer(env.client, query_g, true);
    EXPECT_TRUE(r.ok() && r->has_value());
    double prefix_time = env.sim.now() - t0;
    co_return std::make_pair(load_time, prefix_time);
  };
  auto [load_time, prefix_time] = env.run(task());
  EXPECT_LT(prefix_time, load_time);
}

}  // namespace
}  // namespace evostore::baseline

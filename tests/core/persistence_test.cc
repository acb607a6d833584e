// Provider persistence backends (paper §4.3): write-through to a KV store
// and full state recovery across provider restarts, over both the in-memory
// and the file-backed log-structured backends.
#include <gtest/gtest.h>

#include <filesystem>

#include "storage/log_kv.h"
#include "storage/mem_kv.h"
#include "tests/core/test_env.h"

namespace evostore::core {
namespace {

using common::SegmentKey;
using common::VertexId;
using testing::chain_graph;
using testing::widths_graph;

// A restartable single-provider cluster: the backend outlives the
// repository so a fresh repository can recover from it.
struct RestartableEnv {
  std::unique_ptr<storage::KvStore> backend;
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<net::RpcSystem> rpc;
  std::vector<common::NodeId> provider_nodes;
  common::NodeId worker = 0;
  std::unique_ptr<EvoStoreRepository> repo;

  explicit RestartableEnv(std::unique_ptr<storage::KvStore> kv)
      : backend(std::move(kv)) {
    boot();
  }

  // Tear everything down except the backend, then reconstruct — the
  // equivalent of a provider process restart.
  void restart() {
    repo.reset();
    rpc.reset();
    fabric.reset();
    sim.reset();
    boot();
  }

  void boot() {
    sim = std::make_unique<sim::Simulation>();
    fabric = std::make_unique<net::Fabric>(*sim);
    provider_nodes.clear();
    provider_nodes.push_back(fabric->add_node(25e9, 25e9));
    worker = fabric->add_node(25e9, 25e9);
    rpc = std::make_unique<net::RpcSystem>(*fabric);
    std::vector<storage::KvStore*> backends{backend.get()};
    repo = std::make_unique<EvoStoreRepository>(*rpc, provider_nodes,
                                                ProviderConfig{}, backends);
  }

  Client& client() { return repo->client(worker); }
  Provider& provider() { return repo->provider(0); }

  template <typename T>
  T run(sim::CoTask<T> task) {
    return sim->run_until_complete(std::move(task));
  }

  bool store(const model::Model& m, const TransferContext* tc) {
    auto task = [&]() -> sim::CoTask<common::Status> {
      co_return co_await client().put_model(m, tc);
    };
    return run(task()).ok();
  }
};

class PersistenceTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      dir_ = std::filesystem::temp_directory_path() /
             ("evostore_persist_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name());
      std::filesystem::remove_all(dir_);
      auto kv = storage::LogKv::open(dir_);
      ASSERT_TRUE(kv.ok());
      env_ = std::make_unique<RestartableEnv>(std::move(kv).value());
    } else {
      env_ = std::make_unique<RestartableEnv>(std::make_unique<storage::MemKv>());
    }
  }
  void TearDown() override {
    env_.reset();
    if (GetParam()) std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<RestartableEnv> env_;
};

TEST_P(PersistenceTest, ModelSurvivesRestart) {
  auto g = chain_graph(6, 16);
  auto m = model::Model::random(env_->repo->allocate_id(), g, 5);
  m.set_quality(0.71);
  ASSERT_TRUE(env_->store(m, nullptr));
  ASSERT_EQ(env_->provider().model_count(), 1u);

  env_->restart();
  EXPECT_EQ(env_->provider().model_count(), 1u);
  EXPECT_EQ(env_->provider().segment_count(), g.size());
  auto loaded = env_->run(env_->client().get_model(m.id()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_NEAR(loaded->quality(), 0.71, 1e-9);
  for (VertexId v = 0; v < g.size(); ++v) {
    EXPECT_TRUE(loaded->segment(v).content_equals(m.segment(v))) << v;
  }
}

TEST_P(PersistenceTest, RefcountsSurviveRestart) {
  auto base_g = widths_graph({16, 16, 16, 16, 20});
  auto base = model::Model::random(env_->repo->allocate_id(), base_g, 1);
  base.set_quality(0.5);
  ASSERT_TRUE(env_->store(base, nullptr));

  auto derived_g = widths_graph({16, 16, 16, 16, 40});
  auto prep = env_->run(env_->client().prepare_transfer(derived_g, true));
  ASSERT_TRUE(prep.ok() && prep->has_value());
  auto tc = std::move(prep->value());
  auto child = model::Model::random(env_->repo->allocate_id(), derived_g, 2);
  for (size_t i = 0; i < tc.matches.size(); ++i) {
    child.segment(tc.matches[i].first) = tc.prefix_segments[i];
  }
  ASSERT_TRUE(env_->store(child, &tc));
  ASSERT_EQ(env_->provider().refcount(SegmentKey{base.id(), 0}), 2);

  env_->restart();
  // Shared prefix still counts both references; retiring the base must not
  // free the shared segments.
  EXPECT_EQ(env_->provider().refcount(SegmentKey{base.id(), 0}), 2);
  ASSERT_TRUE(env_->run(env_->client().retire(base.id())).ok());
  EXPECT_EQ(env_->provider().refcount(SegmentKey{base.id(), 0}), 1);
  auto loaded = env_->run(env_->client().get_model(child.id()));
  ASSERT_TRUE(loaded.ok());

  // And a second restart still reflects the post-retire state.
  env_->restart();
  EXPECT_EQ(env_->provider().refcount(SegmentKey{base.id(), 0}), 1);
  EXPECT_FALSE(env_->provider().has_model(base.id()));
  ASSERT_TRUE(env_->run(env_->client().retire(child.id())).ok());
  EXPECT_EQ(env_->provider().segment_count(), 0u);
}

TEST_P(PersistenceTest, RetiredModelStaysGoneAfterRestart) {
  auto g = chain_graph(4, 16);
  auto m = model::Model::random(env_->repo->allocate_id(), g, 1);
  ASSERT_TRUE(env_->store(m, nullptr));
  ASSERT_TRUE(env_->run(env_->client().retire(m.id())).ok());
  env_->restart();
  EXPECT_EQ(env_->provider().model_count(), 0u);
  EXPECT_EQ(env_->provider().segment_count(), 0u);
  EXPECT_EQ(env_->run(env_->client().get_model(m.id())).status().code(),
            common::ErrorCode::kNotFound);
}

TEST_P(PersistenceTest, RebuiltRepositoryDoesNotReuseRetiredIds) {
  // Every retire leaves a durable tombstone that refuses later puts of its
  // id (DESIGN.md §15), so a repository rebuilt over the same backend must
  // not allocate a retired id again — from either allocator.
  auto g = chain_graph(4, 16);
  auto by_repo = model::Model::random(env_->repo->allocate_id(), g, 1);
  auto by_client = model::Model::random(env_->client().allocate_id(),
                                        chain_graph(4, 16, 1), 2);
  for (const model::Model* m : {&by_repo, &by_client}) {
    ASSERT_TRUE(env_->store(*m, nullptr));
    ASSERT_TRUE(env_->run(env_->client().retire(m->id())).ok());
  }
  env_->restart();
  auto again_repo = model::Model::random(env_->repo->allocate_id(), g, 3);
  auto again_client = model::Model::random(env_->client().allocate_id(),
                                           chain_graph(4, 16, 1), 4);
  EXPECT_NE(again_repo.id(), by_repo.id());
  EXPECT_NE(again_client.id(), by_client.id());
  for (const model::Model* m : {&again_repo, &again_client}) {
    ASSERT_TRUE(env_->store(*m, nullptr)) << m->id().to_string();
    EXPECT_TRUE(env_->run(env_->client().get_model(m->id())).ok());
  }
  EXPECT_EQ(env_->provider().model_count(), 2u);
}

TEST_P(PersistenceTest, SequenceNumbersResumeAfterRestart) {
  auto g = chain_graph(3, 8);
  auto m1 = model::Model::random(env_->repo->allocate_id(), g, 1);
  ASSERT_TRUE(env_->store(m1, nullptr));
  auto meta1 = env_->run(env_->client().get_meta(m1.id()));
  ASSERT_TRUE(meta1.ok());

  env_->restart();
  auto m2 = model::Model::random(env_->repo->allocate_id(),
                                 chain_graph(3, 8, 1), 2);
  ASSERT_TRUE(env_->store(m2, nullptr));
  auto meta2 = env_->run(env_->client().get_meta(m2.id()));
  ASSERT_TRUE(meta2.ok());
  // Provider-local ordering continues past the recovered high-water mark.
  EXPECT_GT(meta2->store_seq, meta1->store_seq);
}

TEST_P(PersistenceTest, LcpQueriesWorkOnRecoveredCatalog) {
  for (int tail = 1; tail <= 3; ++tail) {
    auto g = chain_graph(6, 16, tail);
    auto m = model::Model::random(env_->repo->allocate_id(), g,
                                  static_cast<uint64_t>(tail));
    m.set_quality(0.5 + 0.1 * tail);
    ASSERT_TRUE(env_->store(m, nullptr));
  }
  env_->restart();
  auto r = env_->run(env_->client().query_lcp(chain_graph(6, 16)));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);
  EXPECT_EQ(r->lcp_len(), 6u);  // best ancestor: tail=1 model
}

INSTANTIATE_TEST_SUITE_P(Backends, PersistenceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "LogKv" : "MemKv";
                         });

TEST(PersistenceRecovery, CorruptBackendRecordIsSkipped) {
  auto backend = std::make_unique<storage::MemKv>();
  // A garbage metadata record and a garbage segment record.
  ASSERT_TRUE(backend
                  ->put("meta/12345",
                        common::Buffer::dense(common::Bytes(7, std::byte{0xff})))
                  .ok());
  ASSERT_TRUE(backend
                  ->put("seg/12345/0",
                        common::Buffer::dense(common::Bytes(3, std::byte{0xee})))
                  .ok());
  RestartableEnv env(std::move(backend));
  EXPECT_EQ(env.provider().model_count(), 0u);
  EXPECT_EQ(env.provider().segment_count(), 0u);
  // The provider still works for new writes.
  auto g = testing::chain_graph(3, 8);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  EXPECT_TRUE(env.store(m, nullptr));
}

TEST(PersistenceRecovery, SyntheticRecordValuesAreRejectedUnread) {
  // Records are dense serde output. 1 TiB synthetic values under a metadata
  // key and the epoch key are corrupt and must be skipped without being
  // materialized.
  auto backend = std::make_unique<storage::MemKv>();
  ASSERT_TRUE(
      backend->put("meta/12345", common::Buffer::synthetic(1ull << 40, 1)).ok());
  ASSERT_TRUE(
      backend->put("repo/epoch", common::Buffer::synthetic(1ull << 40, 2)).ok());
  RestartableEnv env(std::move(backend));
  EXPECT_EQ(env.repo->token_epoch(), 1u);  // as if no epoch was stored
  EXPECT_EQ(env.provider().model_count(), 0u);
  auto g = testing::chain_graph(3, 8);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  EXPECT_TRUE(env.store(m, nullptr));
}

}  // namespace
}  // namespace evostore::core

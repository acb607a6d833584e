// K-way replication fault model (DESIGN.md §15): hinted handoff parked on a
// surviving replica while a peer is down and replayed exactly-once on its
// recovery; anti-entropy repair rebuilding a permanently-lost provider from
// its replica peers (pulling content-addressed chunk bodies from whichever
// peer has them); drain migrating a provider's catalog to its successor
// replicas; the whole handoff cycle surviving a network partition whose
// heal re-delivers held messages in a reordered order; and retire
// tombstones refusing a put that replays after its model's retire. Across
// all of these, and inside the windows where a provider is down or
// recovering, `find_ancestor` keeps answering exactly what a brute-force
// LCP over the live catalog answers, while scanning each model once
// (DESIGN.md §17).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/lcp.h"
#include "net/fault.h"
#include "storage/mem_kv.h"
#include "tests/core/test_env.h"
#include "workload/deepspace.h"

namespace evostore::core {
namespace {

using common::ModelId;
using common::NodeId;
using common::ProviderId;
using common::SegmentKey;
using common::VertexId;
using testing::chain_graph;

// Simulation-scale chunking (see dedup_gc_test.cc): compact sim payloads
// never reach the deployment-scale 4 KiB threshold.
ProviderConfig chunked_config() {
  ProviderConfig cfg;
  cfg.chunker = compress::ChunkerConfig{/*min_bytes=*/32, /*avg_bytes=*/64,
                                        /*max_bytes=*/256};
  return cfg;
}

// Multi-provider cluster with per-provider MemKv backends and a fault
// injector attached BEFORE repository construction (so restart hooks —
// recovery + hint replay — are registered). Client retries are kept short:
// a write aimed at a down replica must give up quickly and park a hint
// instead of riding out the outage.
struct ReplEnv {
  std::vector<std::unique_ptr<storage::MemKv>> backends;
  sim::Simulation sim;
  net::Fabric fabric;
  net::RpcSystem rpc;
  net::FaultInjector injector;
  std::vector<NodeId> provider_nodes;
  NodeId worker;
  std::unique_ptr<EvoStoreRepository> repo;

  /// `backed` false runs in-memory providers: a restart loses everything.
  explicit ReplEnv(int providers, ProviderConfig config = {},
                   size_t replication = 2, bool backed = true)
      : fabric(sim,
               net::FabricConfig{.latency = 1.5e-6, .local_latency = 2e-7}),
        rpc(fabric),
        injector(sim, net::FaultConfig{.seed = 11,
                                       .loss_detect_seconds = 0.005}) {
    rpc.set_fault_injector(&injector);
    std::vector<storage::KvStore*> raw;
    for (int i = 0; i < providers; ++i) {
      provider_nodes.push_back(fabric.add_node(25e9, 25e9));
      backends.push_back(std::make_unique<storage::MemKv>());
      raw.push_back(backed ? backends.back().get() : nullptr);
    }
    worker = fabric.add_node(25e9, 25e9);
    ClientConfig cc;
    cc.rpc_timeout = 0.02;
    cc.retry.max_attempts = 2;
    cc.retry.initial_backoff = 0.005;
    cc.retry.max_backoff = 0.01;
    cc.replication = replication;
    repo = std::make_unique<EvoStoreRepository>(rpc, provider_nodes, config,
                                                raw, cc);
  }

  Client& client() { return repo->client(worker); }

  template <typename T>
  T run(sim::CoTask<T> task) {
    return sim.run_until_complete(std::move(task));
  }

  /// Advance simulated time (drives detached replay / repair coroutines).
  void settle(double seconds) {
    auto idle = [this, seconds]() -> sim::CoTask<void> {
      co_await sim.delay(seconds);
    };
    run(idle());
  }

  model::Model make_model(const model::ArchGraph& g, uint64_t seed) {
    auto m = model::Model::random(repo->allocate_id(), g, seed);
    m.set_quality(0.6);
    return m;
  }

  sim::CoTask<common::Status> put(const model::Model& m) {
    co_return co_await client().put_model(m, nullptr);
  }

  void expect_reads_back(const model::Model& want) {
    auto got = run(client().get_model(want.id()));
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    for (VertexId v = 0; v < want.vertex_count(); ++v) {
      EXPECT_TRUE(got->segment(v).content_equals(want.segment(v)))
          << "vertex " << v;
    }
  }
};

TEST(Replication, EveryReplicaHoldsEveryModel) {
  ReplEnv env(4);
  auto g = chain_graph(5, 16);
  std::vector<model::Model> models;
  for (uint64_t s = 1; s <= 6; ++s) models.push_back(env.make_model(g, s));
  for (const auto& m : models) ASSERT_TRUE(env.run(env.put(m)).ok());

  const Membership& membership = env.repo->membership();
  ASSERT_EQ(membership.replication(), 2u);
  for (const auto& m : models) {
    auto reps = membership.replicas(m.id());
    ASSERT_EQ(reps.size(), 2u);
    for (ProviderId p : reps) {
      EXPECT_TRUE(env.repo->provider(p).has_model(m.id()));
      for (VertexId v = 0; v < m.vertex_count(); ++v) {
        SegmentKey key{m.id(), v};
        EXPECT_TRUE(env.repo->provider(p).has_segment(key));
        // The replica-group refcount invariant: every replica sees the same
        // logical ±1 stream, so counts march in lockstep.
        EXPECT_EQ(env.repo->provider(p).refcount(key),
                  env.repo->provider(reps[0]).refcount(key));
      }
    }
    // Non-replicas hold nothing for this model.
    for (size_t p = 0; p < env.repo->provider_count(); ++p) {
      if (std::find(reps.begin(), reps.end(), static_cast<ProviderId>(p)) !=
          reps.end()) {
        continue;
      }
      EXPECT_FALSE(env.repo->provider(p).has_model(m.id()));
    }
  }
}

TEST(Replication, WriteDuringOutageParksHintAndReplaysOnRestart) {
  ReplEnv env(3);
  auto g = chain_graph(6, 16);
  auto m1 = env.make_model(g, 1);
  ASSERT_TRUE(env.run(env.put(m1)).ok());

  auto m2 = env.make_model(chain_graph(6, 16, 1, 3), 2);
  auto reps = env.repo->membership().replicas(m2.id());
  ASSERT_EQ(reps.size(), 2u);
  // Crash the PRIMARY replica: the write must commit on the survivor with a
  // hint parked, and reads must fail over past the dead primary.
  ProviderId down = reps[0];
  env.injector.crash_node(env.provider_nodes[down]);

  ASSERT_TRUE(env.run(env.put(m2)).ok());
  EXPECT_GE(env.repo->total_client_fault_stats().hints_sent, 1u);
  EXPECT_GE(env.repo->total_hints(), 1u);
  EXPECT_FALSE(env.repo->provider(down).has_model(m2.id()));

  env.expect_reads_back(m2);  // served by the surviving replica
  EXPECT_GT(env.repo->total_client_fault_stats().read_failovers, 0u);

  // Recovery: the restart hook reloads the backend (m1 intact) and every
  // peer replays its parked hints — the missed put arrives now.
  env.injector.restart_node(env.provider_nodes[down]);
  env.settle(2.0);

  EXPECT_EQ(env.repo->total_hints(), 0u);
  EXPECT_TRUE(env.repo->provider(down).has_model(m2.id()));
  EXPECT_GT(env.repo->provider(reps[1]).stats().hints_replayed, 0u);
  for (VertexId v = 0; v < m2.vertex_count(); ++v) {
    SegmentKey key{m2.id(), v};
    EXPECT_EQ(env.repo->provider(down).refcount(key),
              env.repo->provider(reps[1]).refcount(key));
  }
  env.expect_reads_back(m1);
  env.expect_reads_back(m2);
}

TEST(Replication, HintReplayIsIdempotentAcrossReincarnation) {
  // The ambiguity hinted handoff must absorb: the target APPLIED the write,
  // then crashed before anyone saw the response. The parked hint replays on
  // recovery and the embedded idempotency token — whose dedup record the
  // target recovered from its backend — makes the replay a no-op.
  ReplEnv env(3);
  auto g = chain_graph(4, 16);
  auto m = env.make_model(g, 1);
  ASSERT_TRUE(env.run(env.put(m)).ok());
  auto reps = env.repo->membership().replicas(m.id());
  ASSERT_EQ(reps.size(), 2u);
  ProviderId target = reps[0];
  ProviderId custodian = reps[1];
  SegmentKey key{m.id(), 1};
  ASSERT_EQ(env.repo->provider(target).refcount(key), 1);

  wire::ModifyRefsRequest req;
  req.increment = true;
  req.keys.push_back(key);
  req.token = 0x5151000200000007ULL;
  // Applied on the target for real...
  auto deliver = [&]() -> sim::CoTask<common::Status> {
    auto r = co_await net::typed_call<wire::ModifyRefsResponse>(
        &env.rpc, env.worker, env.provider_nodes[target], Provider::kModifyRefs,
        req);
    co_return r.ok() ? r->status : r.status();
  };
  ASSERT_TRUE(env.run(deliver()).ok());
  ASSERT_EQ(env.repo->provider(target).refcount(key), 2);

  // ...but the client never saw the response, so the SAME request was parked
  // as a hint on the custodian.
  wire::StoreHintRequest hreq;
  hreq.hint.target = target;
  hreq.hint.method = Provider::kModifyRefs;
  hreq.hint.payload = common::encode(req);
  auto park = [&]() -> sim::CoTask<common::Status> {
    auto r = co_await net::typed_call<wire::StoreHintResponse>(
        &env.rpc, env.worker, env.provider_nodes[custodian],
        Provider::kStoreHint, hreq);
    co_return r.ok() ? r->status : r.status();
  };
  ASSERT_TRUE(env.run(park()).ok());
  ASSERT_EQ(env.repo->provider(custodian).hint_count_for(target), 1u);

  // Reincarnation: crash, then restart (state + token dedup cache recovered
  // from the backend); the restart hook replays the hint.
  env.injector.crash_node(env.provider_nodes[target]);
  env.injector.restart_node(env.provider_nodes[target]);
  env.settle(2.0);

  EXPECT_EQ(env.repo->provider(custodian).hint_count_for(target), 0u);
  EXPECT_EQ(env.repo->provider(target).refcount(key), 2);  // applied ONCE
  EXPECT_EQ(env.repo->provider(target).stats().deduped_replays, 1u);
}

TEST(Replication, RepairRebuildsWipedProviderFromPeers) {
  ReplEnv env(3, chunked_config());
  auto g = chain_graph(8, 48);
  std::vector<model::Model> models;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    models.push_back(env.make_model(g, seed));
    ASSERT_TRUE(env.run(env.put(models.back())).ok());
  }

  // Permanent loss: the provider dies AND its backend is wiped, so the
  // restart comes back empty — only anti-entropy repair can rebuild it.
  constexpr ProviderId kLost = 0;
  env.injector.crash_node(env.provider_nodes[kLost]);
  for (const std::string& key : env.backends[kLost]->keys()) {
    ASSERT_TRUE(env.backends[kLost]->erase(key).ok());
  }
  env.injector.restart_node(env.provider_nodes[kLost]);
  env.settle(0.1);
  ASSERT_EQ(env.repo->provider(kLost).model_count(), 0u);

  ASSERT_TRUE(env.run(env.repo->repair_provider(kLost)).ok());

  // Every model whose replica set includes the lost provider is back, with
  // envelopes (chunk manifests included) and refcounts matching its peer.
  size_t rebuilt = 0;
  for (const auto& m : models) {
    auto reps = env.repo->membership().replicas(m.id());
    if (std::find(reps.begin(), reps.end(), kLost) == reps.end()) continue;
    ++rebuilt;
    ProviderId peer = reps[0] == kLost ? reps[1] : reps[0];
    EXPECT_TRUE(env.repo->provider(kLost).has_model(m.id()));
    for (VertexId v = 0; v < m.vertex_count(); ++v) {
      SegmentKey key{m.id(), v};
      const auto* mine = env.repo->provider(kLost).segment_envelope(key);
      const auto* theirs = env.repo->provider(peer).segment_envelope(key);
      ASSERT_NE(mine, nullptr) << "vertex " << v;
      ASSERT_NE(theirs, nullptr) << "vertex " << v;
      EXPECT_EQ(*mine, *theirs) << "vertex " << v;
      EXPECT_EQ(env.repo->provider(kLost).refcount(key),
                env.repo->provider(peer).refcount(key));
    }
    env.expect_reads_back(m);
  }
  EXPECT_GT(rebuilt, 0u);
  // The rebuild was chunk-aware: manifests travelled and the missing bodies
  // were pulled content-addressed from peers, not re-uploaded by clients.
  EXPECT_GT(env.repo->provider(kLost).stats().replica_chunks_fetched, 0u);
  EXPECT_EQ(env.repo->total_hints(), 0u);
}

TEST(Replication, ReplicateInstallPullsChunksFromAnyLivePeer) {
  // The pushing provider is only the FIRST chunk source: when it cannot
  // serve (it died mid-push), the installer falls back to the other replica
  // peers — whoever holds the content-addressed body serves it.
  ReplEnv env(3, chunked_config());
  auto g = chain_graph(8, 48);
  auto m = env.make_model(g, 1);
  ASSERT_TRUE(env.run(env.put(m)).ok());
  auto reps = env.repo->membership().replicas(m.id());
  ASSERT_EQ(reps.size(), 2u);
  ProviderId third = 0;
  for (size_t p = 0; p < env.repo->provider_count(); ++p) {
    if (std::find(reps.begin(), reps.end(), static_cast<ProviderId>(p)) ==
        reps.end()) {
      third = static_cast<ProviderId>(p);
    }
  }

  // A chunked envelope as stored on a replica.
  SegmentKey key{m.id(), 1};
  const auto* env_stored = env.repo->provider(reps[0]).segment_envelope(key);
  ASSERT_NE(env_stored, nullptr);
  ASSERT_EQ(env_stored->kind, compress::EnvelopeKind::kChunked);

  wire::ReplicateRequest req;
  req.has_meta = false;
  req.id = m.id();
  req.segments.push_back({key, *env_stored, /*refs=*/1});
  // Source: a replica that just died. Peer list: the surviving replica.
  req.source_node = env.provider_nodes[reps[0]];
  req.peer_nodes = {env.provider_nodes[reps[1]]};
  env.injector.crash_node(env.provider_nodes[reps[0]]);

  auto push = [&]() -> sim::CoTask<wire::ReplicateResponse> {
    auto r = co_await net::typed_call<wire::ReplicateResponse>(
        &env.rpc, env.worker, env.provider_nodes[third], Provider::kReplicate,
        req);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    co_return r.ok() ? *r : wire::ReplicateResponse{};
  };
  auto resp = env.run(push());
  EXPECT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_EQ(resp.installed_segments, 1u);
  EXPECT_GT(resp.fetched_chunks, 0u);

  const auto* installed = env.repo->provider(third).segment_envelope(key);
  ASSERT_NE(installed, nullptr);
  EXPECT_EQ(*installed, *env_stored);
  EXPECT_GT(env.repo->provider(third).stats().replica_chunks_fetched, 0u);
}

TEST(Replication, DrainMigratesCatalogUnderOngoingMembershipView) {
  ReplEnv env(4);
  auto g = chain_graph(6, 16);
  std::vector<model::Model> models;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    models.push_back(env.make_model(g, seed));
    ASSERT_TRUE(env.run(env.put(models.back())).ok());
  }

  constexpr ProviderId kLeaving = 1;
  ASSERT_TRUE(env.run(env.repo->drain_provider(kLeaving)).ok());

  // The provider left the ring empty and refuses new work.
  EXPECT_TRUE(env.repo->provider(kLeaving).drained());
  EXPECT_EQ(env.repo->provider(kLeaving).model_count(), 0u);
  EXPECT_EQ(env.repo->provider(kLeaving).segment_count(), 0u);
  EXPECT_FALSE(env.repo->membership().is_live(kLeaving));
  EXPECT_GT(env.repo->provider(kLeaving).stats().drain_models_moved, 0u);

  // Every model is still at full replication strength on the survivors and
  // reads back bit-identical.
  for (const auto& m : models) {
    auto reps = env.repo->membership().replicas(m.id());
    ASSERT_EQ(reps.size(), 2u);
    for (ProviderId p : reps) {
      EXPECT_NE(p, kLeaving);
      EXPECT_TRUE(env.repo->provider(p).has_model(m.id()));
    }
    env.expect_reads_back(m);
  }

  // New writes place on the survivors only.
  auto late = env.make_model(g, 99);
  ASSERT_TRUE(env.run(env.put(late)).ok());
  EXPECT_FALSE(env.repo->provider(kLeaving).has_model(late.id()));
  env.expect_reads_back(late);
}

TEST(Replication, HandoffReplaySurvivesPartitionWithReorderedHeal) {
  // The replica crashes, writes park as hints, and it restarts INSIDE a
  // network partition: the replayed hints are held by the partition and
  // delivered after the heal, smeared in a seeded reordered order — which
  // the hints' embedded idempotency tokens must absorb.
  ReplEnv env(3);
  auto g = chain_graph(6, 16);
  auto m1 = env.make_model(g, 1);
  ASSERT_TRUE(env.run(env.put(m1)).ok());

  std::vector<model::Model> missed;
  for (uint64_t seed = 2; seed <= 4; ++seed) {
    missed.push_back(env.make_model(chain_graph(6, 16, 1, 2 + seed), seed));
  }
  // All three writes target the same down replica only if their replica
  // sets agree; instead just crash ONE provider and keep the writes whose
  // replica sets include it (every write still succeeds on its survivor).
  constexpr ProviderId kVictim = 0;

  auto driver = [&]() -> sim::CoTask<void> {
    double now = env.sim.now();
    env.injector.schedule_crash(env.provider_nodes[kVictim], now + 1e-6,
                                /*downtime=*/0.2);
    env.injector.schedule_partition({env.provider_nodes[kVictim]}, now + 0.1,
                                    now + 0.35);
    co_await env.sim.delay(1e-4);
    for (const auto& m : missed) {
      auto st = co_await env.client().put_model(m, nullptr);
      EXPECT_TRUE(st.ok()) << st.to_string();
    }
    // Ride past restart (t+0.2, inside the partition), the heal (t+0.35),
    // and the reorder spread.
    co_await env.sim.delay(1.5);
  };
  env.run(driver());

  EXPECT_GT(env.injector.stats().partitioned_messages, 0u);
  EXPECT_EQ(env.repo->total_hints(), 0u);
  size_t victim_writes = 0;
  for (const auto& m : missed) {
    auto reps = env.repo->membership().replicas(m.id());
    if (std::find(reps.begin(), reps.end(), kVictim) == reps.end()) continue;
    ++victim_writes;
    EXPECT_TRUE(env.repo->provider(kVictim).has_model(m.id()));
    env.expect_reads_back(m);
  }
  EXPECT_GT(victim_writes, 0u);
  uint64_t replayed = 0;
  for (size_t p = 0; p < env.repo->provider_count(); ++p) {
    replayed += env.repo->provider(p).stats().hints_replayed;
  }
  EXPECT_GT(replayed, 0u);
}

// Deliver one request straight to provider `to` and return its status.
template <typename Response, typename Request>
common::Status deliver(ReplEnv& env, ProviderId to, const char* method,
                       Request req) {
  auto call = [&]() -> sim::CoTask<common::Status> {
    auto r = co_await net::typed_call<Response>(
        &env.rpc, env.worker, env.provider_nodes[to], method, req);
    co_return r.ok() ? r->status : r.status();
  };
  return env.run(call());
}

// A put parked as a hint that outlives its model's retire. This is the race
// that let a retired model come back under faults: a put's leg to `target`
// exhausts while `target` is down; `target` restarts and its peers replay
// the hints parked so far (none yet); only then is the put parked on
// `custodian`. The retire that follows removes the model from `custodian`
// and reaches `target`, which never held it.
struct LatePutHint {
  model::Model m;
  ProviderId target = 0;
  ProviderId custodian = 0;
};

LatePutHint park_put_then_retire(ReplEnv& env) {
  LatePutHint s{env.make_model(chain_graph(5, 16), 1)};
  auto reps = env.repo->membership().replicas(s.m.id());
  EXPECT_EQ(reps.size(), 2u);
  s.target = reps[0];
  s.custodian = reps[1];

  wire::PutModelRequest put;
  put.id = s.m.id();
  put.quality = s.m.quality();
  put.graph = s.m.graph();
  put.owners = OwnerMap::self_owned(s.m.id(), s.m.vertex_count());
  for (VertexId v = 0; v < s.m.vertex_count(); ++v) {
    put.new_segments.emplace_back(
        v, compress::compress_segment(s.m.segment(v), compress::CodecId::kRaw)
               .value());
  }
  env.injector.crash_node(env.provider_nodes[s.target]);
  EXPECT_TRUE(deliver<wire::PutModelResponse>(env, s.custodian,
                                              Provider::kPutModel, put)
                  .ok());
  env.injector.restart_node(env.provider_nodes[s.target]);
  env.settle(1.0);
  wire::StoreHintRequest park;
  park.hint = wire::HintRecord{s.target, Provider::kPutModel,
                               common::encode(put)};
  EXPECT_TRUE(deliver<wire::StoreHintResponse>(env, s.custodian,
                                               Provider::kStoreHint, park)
                  .ok());
  EXPECT_EQ(env.repo->provider(s.custodian).hint_count_for(s.target), 1u);

  EXPECT_TRUE(env.run(env.client().retire(s.m.id())).ok());
  EXPECT_FALSE(env.repo->provider(s.custodian).has_model(s.m.id()));
  EXPECT_FALSE(env.repo->provider(s.target).has_model(s.m.id()));
  return s;
}

// After the late hint replays, the model is gone from both replicas and
// every one of its segments is freed.
void expect_stays_retired(ReplEnv& env, const LatePutHint& s) {
  EXPECT_EQ(env.repo->total_hints(), 0u);
  for (ProviderId p : {s.target, s.custodian}) {
    const Provider& provider = env.repo->provider(p);
    EXPECT_FALSE(provider.has_model(s.m.id())) << "provider " << p;
    for (VertexId v = 0; v < s.m.vertex_count(); ++v) {
      const SegmentKey key{s.m.id(), v};
      EXPECT_FALSE(provider.has_segment(key)) << "provider " << p << " " << v;
      EXPECT_EQ(provider.refcount(key), 0);
    }
  }
  EXPECT_EQ(env.run(env.client().get_meta(s.m.id())).status().code(),
            common::ErrorCode::kNotFound);
}

TEST(Replication, PutReplayedAfterRetireDoesNotResurrectModel) {
  ReplEnv env(3);
  LatePutHint s = park_put_then_retire(env);
  // The retire left a tombstone on `target`, so the replayed put is refused.
  EXPECT_EQ(env.run(env.repo->provider(s.custodian)
                        .replay_hints(s.target, env.provider_nodes[s.target])),
            1u);
  expect_stays_retired(env, s);
}

TEST(Replication, RetireTombstoneSurvivesCrashBeforeReplay) {
  ReplEnv env(3);
  LatePutHint s = park_put_then_retire(env);
  // `target` crashes between the retire and the replay: the tombstone is
  // durable, so the restart hook's replay is refused all the same.
  env.injector.crash_node(env.provider_nodes[s.target]);
  env.injector.restart_node(env.provider_nodes[s.target]);
  env.settle(2.0);
  EXPECT_EQ(env.repo->provider(s.custodian).stats().hints_replayed, 1u);
  expect_stays_retired(env, s);
}

// The scan-path LCP oracle through the catalog lifecycle: branchy DeepSpace
// graphs (distinct qualities, plus duplicate graphs whose quality ties force
// the lower-id rule) must get exactly the brute-force answer — best by
// (prefix length, quality, lower id) over the LIVE catalog, never tagged
// partial — after puts, a retire, a drain, a wipe-and-repair, and a
// crash-restart from the backend; and inside the windows where a provider
// cannot answer for the models it owns: during an outage, between drains
// whose pushes missed a down joiner and the joiner's repair, between a wiped
// restart and its repair, after a repair whose pushes could not land,
// between a put that left no hint for its owner and the owner's repair, and
// between a crash-restart and its hint replays.
TEST(Replication, FindAncestorMatchesBruteForceThroughLifecycle) {
  struct Entry {
    ModelId id;
    double quality;
    model::ArchGraph graph;
  };
  ReplEnv env(5);
  workload::DeepSpace space;
  common::Xoshiro256 rng(21);
  std::vector<Entry> live;
  auto store = [&](const model::ArchGraph& g, double quality) {
    model::Model m(env.repo->allocate_id(), g);
    m.set_quality(quality);
    ASSERT_TRUE(env.run(env.put(m)).ok());
    live.push_back({m.id(), quality, g});
  };
  std::vector<workload::DeepSpaceSeq> queries;
  for (int family = 0; family < 6; ++family) {
    auto base = space.random(rng);
    store(space.decode_graph(base), 0.1 * family);
    auto child = space.mutate(base, rng);
    store(space.decode_graph(child), 0.05 + 0.1 * family);
    // Same graph, same quality: only the lower id may win.
    store(space.decode_graph(child), 0.05 + 0.1 * family);
    queries.push_back(space.mutate(base, rng));
    queries.push_back(space.mutate(child, rng));
    queries.push_back(child);
  }
  queries.push_back(space.random(rng));

  auto expect_oracle = [&](const char* phase) {
    size_t found = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      model::ArchGraph q = space.decode_graph(queries[i]);
      const Entry* best = nullptr;
      LcpResult best_r;
      for (const Entry& e : live) {
        LcpResult r = longest_common_prefix(q, e.graph);
        if (r.length() == 0) continue;
        bool better = best == nullptr || r.length() > best_r.length() ||
                      (r.length() == best_r.length() &&
                       (e.quality > best->quality ||
                        (e.quality == best->quality && e.id < best->id)));
        if (better) {
          best = &e;
          best_r = std::move(r);
        }
      }
      auto got = env.run(env.client().query_lcp(q));
      ASSERT_TRUE(got.ok()) << phase << " query " << i;
      EXPECT_FALSE(got->partial) << phase << " query " << i;
      ASSERT_EQ(got->found, best != nullptr) << phase << " query " << i;
      if (best == nullptr) continue;
      ++found;
      EXPECT_EQ(got->ancestor, best->id) << phase << " query " << i;
      EXPECT_EQ(got->quality, best->quality) << phase << " query " << i;
      EXPECT_EQ(got->matches, best_r.matches) << phase << " query " << i;
    }
    EXPECT_GT(found, 0u) << phase;
  };
  expect_oracle("after puts");

  // Retire the first of each tied pair: the lower id leaves, so the
  // higher-id twin must now win those queries.
  std::vector<ModelId> retired;
  for (size_t i = 1; i < live.size(); i += 3) retired.push_back(live[i].id);
  for (ModelId id : retired) {
    ASSERT_TRUE(env.run(env.repo->retire(env.worker, id)).ok());
  }
  std::erase_if(live, [&](const Entry& e) {
    return std::find(retired.begin(), retired.end(), e.id) != retired.end();
  });
  expect_oracle("after retire");

  // Outage: provider 3 is down, so the next replica of each model it owns
  // scans that model in a takeover round.
  const Membership& membership = env.repo->membership();
  constexpr ProviderId kDown = 3;
  const uint64_t takeovers =
      env.repo->total_client_fault_stats().lcp_takeovers;
  env.injector.crash_node(env.provider_nodes[kDown]);
  expect_oracle("during outage");
  EXPECT_EQ(env.repo->total_client_fault_stats().lcp_takeovers,
            takeovers + queries.size());
  env.injector.restart_node(env.provider_nodes[kDown]);
  env.settle(0.1);
  EXPECT_FALSE(membership.is_recovering(kDown));

  // Drain with a joiner down. The model `stranded` ranks providers 1 and 4
  // first and 2 third, so draining 1 makes 2 its joiner. 2 is down and the
  // push misses it; draining 4 next makes 2 its owner while 2 still lacks
  // it. 2 stays awaiting repair, its share taken over, until a repair of it
  // lands. The model equals query 2 with a top quality, so it is that
  // query's answer.
  constexpr ProviderId kJoiner = 2;
  ModelId stranded_id = env.repo->allocate_id();
  for (;; stranded_id = env.repo->allocate_id()) {
    auto ranked = replicas_for(stranded_id, 5, 3);
    if (std::min(ranked[0], ranked[1]) == 1 &&
        std::max(ranked[0], ranked[1]) == 4 && ranked[2] == kJoiner) {
      break;
    }
  }
  model::Model stranded(stranded_id, space.decode_graph(queries[2]));
  stranded.set_quality(0.98);
  ASSERT_TRUE(env.run(env.put(stranded)).ok());
  live.push_back({stranded.id(), stranded.quality(), stranded.graph()});
  env.injector.crash_node(env.provider_nodes[kJoiner]);
  ASSERT_TRUE(env.run(env.repo->drain_provider(1)).ok());
  env.injector.restart_node(env.provider_nodes[kJoiner]);
  env.settle(0.1);
  EXPECT_FALSE(env.repo->provider(kJoiner).has_model(stranded_id));
  EXPECT_TRUE(membership.is_recovering(kJoiner));
  expect_oracle("drain while a joiner was down");
  ASSERT_TRUE(env.run(env.repo->drain_provider(4)).ok());
  ASSERT_EQ(membership.replicas(stranded_id).front(), kJoiner);
  EXPECT_FALSE(env.repo->provider(kJoiner).has_model(stranded_id));
  EXPECT_TRUE(membership.is_recovering(kJoiner));
  expect_oracle("joiner owns a model it lacks");
  ASSERT_TRUE(env.run(env.repo->repair_provider(kJoiner)).ok());
  EXPECT_FALSE(membership.is_recovering(kJoiner));
  EXPECT_TRUE(env.repo->provider(kJoiner).has_model(stranded_id));
  expect_oracle("after drain");

  // Permanent loss of provider 0, rebuilt by anti-entropy repair.
  constexpr ProviderId kLost = 0;
  env.injector.crash_node(env.provider_nodes[kLost]);
  for (const std::string& key : env.backends[kLost]->keys()) {
    ASSERT_TRUE(env.backends[kLost]->erase(key).ok());
  }
  env.injector.restart_node(env.provider_nodes[kLost]);
  env.settle(0.1);
  ASSERT_EQ(env.repo->provider(kLost).model_count(), 0u);
  // Up but empty: recovering until repaired, its share taken over.
  EXPECT_TRUE(membership.is_recovering(kLost));
  expect_oracle("wiped, before repair");
  // A repair whose pushes cannot land (the target went down again) fails
  // and leaves the target awaiting repair: back up and still empty, its
  // share is still taken over.
  env.injector.crash_node(env.provider_nodes[kLost]);
  EXPECT_FALSE(env.run(env.repo->repair_provider(kLost)).ok());
  env.injector.restart_node(env.provider_nodes[kLost]);
  env.settle(0.1);
  ASSERT_EQ(env.repo->provider(kLost).model_count(), 0u);
  EXPECT_TRUE(membership.is_recovering(kLost));
  expect_oracle("repair pushes failed");
  ASSERT_TRUE(env.run(env.repo->repair_provider(kLost)).ok());
  EXPECT_FALSE(membership.is_recovering(kLost));
  EXPECT_GT(env.repo->provider(kLost).model_count(), 0u);
  expect_oracle("after repair");

  // A put whose owner leg fails and whose hint finds no custodian: the
  // owner is down, and the second replica commits the put, then goes down
  // before the hint reaches it. The put still succeeds; the client marks
  // the owner awaiting repair, so its share is taken over until a repair
  // brings the model in. The model equals query 1 with the top quality, so
  // it is that query's answer.
  constexpr ProviderId kUnhinted = 3;
  ModelId unhinted_id = env.repo->allocate_id();
  while (membership.replicas(unhinted_id).front() != kUnhinted) {
    unhinted_id = env.repo->allocate_id();
  }
  const ProviderId custodian = membership.replicas(unhinted_id)[1];
  const uint64_t hints_sent = env.repo->total_client_fault_stats().hints_sent;
  env.injector.crash_node(env.provider_nodes[kUnhinted]);
  env.injector.schedule_crash(env.provider_nodes[custodian],
                              env.sim.now() + 0.002, 0.5);
  model::Model unhinted(unhinted_id, space.decode_graph(queries[1]));
  unhinted.set_quality(0.99);
  ASSERT_TRUE(env.run(env.put(unhinted)).ok());
  live.push_back({unhinted.id(), unhinted.quality(), unhinted.graph()});
  EXPECT_EQ(env.repo->total_client_fault_stats().hints_sent, hints_sent);
  EXPECT_TRUE(membership.is_recovering(kUnhinted));
  env.injector.restart_node(env.provider_nodes[kUnhinted]);
  env.settle(1.0);  // the custodian is back up
  ASSERT_TRUE(env.repo->provider(custodian).has_model(unhinted_id));
  ASSERT_FALSE(env.repo->provider(kUnhinted).has_model(unhinted_id));
  EXPECT_TRUE(membership.is_recovering(kUnhinted));
  expect_oracle("put left no hint, before repair");
  ASSERT_TRUE(env.run(env.repo->repair_provider(kUnhinted)).ok());
  EXPECT_FALSE(membership.is_recovering(kUnhinted));
  EXPECT_TRUE(env.repo->provider(kUnhinted).has_model(unhinted_id));
  expect_oracle("after the owner's repair");

  // Crash-restart with the backend intact: the catalog is restored from it.
  // While provider 2 is down, a model it owns is stored; its put is parked
  // as a hint. The model equals query 0 with the top quality, so it is that
  // query's answer, and only a scan of provider 2's share can find it.
  constexpr ProviderId kRestarted = 2;
  env.injector.crash_node(env.provider_nodes[kRestarted]);
  ModelId owned = env.repo->allocate_id();
  while (membership.replicas(owned).front() != kRestarted) {
    owned = env.repo->allocate_id();
  }
  model::Model late(owned, space.decode_graph(queries[0]));
  late.set_quality(0.99);
  ASSERT_TRUE(env.run(env.put(late)).ok());
  live.push_back({late.id(), late.quality(), late.graph()});
  EXPECT_TRUE(membership.is_recovering(kRestarted));
  // The restart hook starts the hint replay; the first query below runs
  // before it lands.
  env.injector.restart_node(env.provider_nodes[kRestarted]);
  EXPECT_FALSE(env.repo->provider(kRestarted).has_model(owned));
  EXPECT_TRUE(membership.is_recovering(kRestarted));
  expect_oracle("restarted, before hint replay");
  env.settle(2.0);
  EXPECT_FALSE(membership.is_recovering(kRestarted));
  EXPECT_TRUE(env.repo->provider(kRestarted).has_model(owned));
  EXPECT_GE(env.repo->provider(kRestarted).stats().restarts, 1u);
  EXPECT_GT(env.repo->provider(kRestarted).model_count(), 0u);
  expect_oracle("after restart");
  EXPECT_EQ(env.repo->total_client_fault_stats().partial_lcp_queries, 0u);
}

// Scan accounting: with k = 2 every query scans each stored model exactly
// once, fault-free and with one provider down (the takeover round scans the
// down provider's share, and nothing else).
TEST(Replication, LcpScansEachModelOnceWithOrWithoutAnOutage) {
  ReplEnv env(4);
  constexpr uint64_t kModels = 12;
  constexpr uint64_t kQueries = 5;
  for (uint64_t i = 0; i < kModels; ++i) {
    auto g = chain_graph(5, 16, static_cast<int>(i % 4), 3 + i);
    ASSERT_TRUE(env.run(env.put(env.make_model(g, i + 1))).ok());
  }
  auto scanned = [&] {
    uint64_t n = 0;
    for (size_t p = 0; p < env.repo->provider_count(); ++p) {
      n += env.repo->provider(p).stats().lcp_models_scanned;
    }
    return n;
  };
  auto query_all = [&](const char* phase) {
    const uint64_t before = scanned();
    for (uint64_t q = 0; q < kQueries; ++q) {
      auto r = env.run(env.client().query_lcp(chain_graph(5, 16, 1, 40 + q)));
      ASSERT_TRUE(r.ok()) << phase;
      EXPECT_TRUE(r->found) << phase;
      EXPECT_FALSE(r->partial) << phase;
    }
    EXPECT_EQ(scanned() - before, kQueries * kModels) << phase;
  };
  query_all("fault-free");
  EXPECT_EQ(env.repo->total_client_fault_stats().lcp_takeovers, 0u);

  env.injector.crash_node(env.provider_nodes[1]);
  query_all("one provider down");
  const ClientFaultStats faults = env.repo->total_client_fault_stats();
  EXPECT_EQ(faults.lcp_takeovers, kQueries);
  EXPECT_EQ(faults.partial_lcp_queries, 0u);
}

// The plain scan walks a cached list of the rows each provider owns. Every
// change to a catalog or to placement must make that list follow: after
// each one, a query gets the brute-force answer over the live catalog, and
// each live model is scanned exactly once per query. Each change adds,
// removes or moves the answer of some query, so a list left stale would
// miss a model, scan a retired one, or scan a model twice.
struct ScanOracle {
  struct Entry {
    ModelId id;
    double quality;
    model::ArchGraph graph;
  };
  ReplEnv& env;
  std::vector<model::ArchGraph> queries;
  std::vector<Entry> live;

  uint64_t scanned() const {
    uint64_t n = 0;
    for (size_t p = 0; p < env.repo->provider_count(); ++p) {
      n += env.repo->provider(p).stats().lcp_models_scanned;
    }
    return n;
  }

  void check(const std::string& phase) {
    const uint64_t before = scanned();
    for (size_t i = 0; i < queries.size(); ++i) {
      const Entry* best = nullptr;
      LcpResult best_r;
      for (const Entry& e : live) {
        LcpResult r = longest_common_prefix(queries[i], e.graph);
        if (r.length() == 0) continue;
        if (best == nullptr ||
            lcp_outranks(r.length(), e.quality, e.id, best_r.length(),
                         best->quality, best->id)) {
          best = &e;
          best_r = std::move(r);
        }
      }
      auto got = env.run(env.client().query_lcp(queries[i]));
      ASSERT_TRUE(got.ok()) << phase << " query " << i;
      EXPECT_FALSE(got->partial) << phase << " query " << i;
      ASSERT_EQ(got->found, best != nullptr) << phase << " query " << i;
      if (best == nullptr) continue;
      EXPECT_EQ(got->ancestor, best->id) << phase << " query " << i;
      EXPECT_EQ(got->matches, best_r.matches) << phase << " query " << i;
    }
    EXPECT_EQ(scanned() - before, live.size() * queries.size()) << phase;
  }

  /// Store query `q`'s own graph at the top quality, under an id whose
  /// first replica is `owner`: that model becomes query `q`'s answer.
  model::Model answer_for(size_t q, ProviderId owner, double quality) {
    ModelId id = env.repo->allocate_id();
    while (env.repo->membership().replicas(id).front() != owner) {
      id = env.repo->allocate_id();
    }
    model::Model m(id, queries[q]);
    m.set_quality(quality);
    return m;
  }

  void put(const model::Model& m) {
    ASSERT_TRUE(env.run(env.put(m)).ok());
    live.push_back({m.id(), m.quality(), m.graph()});
  }

  void retire(ModelId id) {
    ASSERT_TRUE(env.run(env.client().retire(id)).ok());
    std::erase_if(live, [&](const Entry& e) { return e.id == id; });
  }
};

ScanOracle populated_oracle(ReplEnv& env, uint64_t seed) {
  ScanOracle o{env, {}, {}};
  workload::DeepSpace space;
  common::Xoshiro256 rng(seed);
  for (int i = 0; i < 16; ++i) {
    auto s = space.random(rng);
    model::Model m(env.repo->allocate_id(), space.decode_graph(s));
    m.set_quality(static_cast<double>(i % 4) / 8.0);
    o.put(m);
    o.queries.push_back(space.decode_graph(space.mutate(s, rng)));
  }
  return o;
}

TEST(Replication, OwnedScanRowsFollowEveryCatalogChange) {
  ReplEnv env(4);
  ScanOracle o = populated_oracle(env, 41);
  o.check("after puts");

  // put: a new model owned by each provider.
  for (ProviderId p = 0; p < 4; ++p) o.put(o.answer_for(p, p, 0.9));
  o.check("put");

  // replicate install: a model that reaches its replicas only as
  // anti-entropy pushes (no put).
  model::Model pushed = o.answer_for(4, 1, 0.95);
  wire::ReplicateRequest rr;
  rr.has_meta = true;
  rr.id = pushed.id();
  rr.meta.graph = pushed.graph();
  rr.meta.owners = OwnerMap::self_owned(pushed.id(), pushed.vertex_count());
  rr.meta.quality = pushed.quality();
  for (ProviderId p : env.repo->membership().replicas(pushed.id())) {
    rr.source_node = env.worker;
    ASSERT_TRUE(
        deliver<wire::ReplicateResponse>(env, p, Provider::kReplicate, rr)
            .ok());
  }
  o.live.push_back({pushed.id(), pushed.quality(), pushed.graph()});
  o.check("replicate install");

  // retire: the answer of query 0 leaves.
  o.retire(o.live[16].id);
  o.check("retire");

  // restart: provider 2 restores its catalog from its backend.
  env.injector.crash_node(env.provider_nodes[2]);
  env.injector.restart_node(env.provider_nodes[2]);
  env.settle(0.1);
  ASSERT_FALSE(env.repo->membership().is_recovering(2));
  o.check("restart");

  // placement change alone: provider 3 leaves placement with its catalog
  // still in place, so the next replica of each model it owned holds the
  // model already and must now scan it.
  env.repo->membership().retire_provider(3);
  o.check("placement change");

  // drain: the catalog moves to the joiners, and provider 3 is emptied.
  ASSERT_TRUE(env.run(env.repo->drain_provider(3)).ok());
  EXPECT_EQ(env.repo->provider(3).model_count(), 0u);
  o.check("drain");
}

// An in-memory provider (k = 1) loses its whole catalog in a restart. With
// one replica the restarted provider is still asked in the plain round, so
// its scan list must be empty: the lost models are gone from the answer.
TEST(Replication, RestartWithoutBackendEmptiesOwnedScanRows) {
  ReplEnv env(3, {}, /*replication=*/1, /*backed=*/false);
  ScanOracle o = populated_oracle(env, 43);
  o.put(o.answer_for(0, 1, 0.9));
  o.check("before restart");
  env.injector.crash_node(env.provider_nodes[1]);
  env.injector.restart_node(env.provider_nodes[1]);
  env.settle(0.1);
  ASSERT_EQ(env.repo->provider(1).model_count(), 0u);
  std::erase_if(o.live, [&](const ScanOracle::Entry& e) {
    return env.repo->membership().replicas(e.id).front() == 1;
  });
  o.check("after restart");
}

// Two providers recovering at once with k = 2: the models whose replicas
// are both of them are scanned by the first of the two in the takeover
// round, so the answer stays exact and each model is still scanned once.
TEST(Replication, TwoRecoveringReplicasStillAnswerExactly) {
  ReplEnv env(4);
  const Membership& membership = env.repo->membership();
  constexpr uint64_t kModels = 12;
  for (uint64_t i = 0; i < kModels; ++i) {
    auto g = chain_graph(5, 16, static_cast<int>(i % 4), 3 + i);
    ASSERT_TRUE(env.run(env.put(env.make_model(g, i + 1))).ok());
  }
  // The answer: the query's own graph, stored with replicas {x, y}.
  auto q = chain_graph(6, 16, 1, 99);
  model::Model answer = env.make_model(q, 100);
  answer.set_quality(0.9);
  const std::vector<ProviderId> pair = membership.replicas(answer.id());
  ASSERT_TRUE(env.run(env.put(answer)).ok());
  // Both go down; one put owned by each is parked as a hint on a peer.
  for (ProviderId p : pair) env.injector.crash_node(env.provider_nodes[p]);
  uint64_t stored = kModels + 1;
  for (ProviderId owner : pair) {
    for (uint64_t seed = 200;; ++seed) {
      model::Model m = env.make_model(chain_graph(5, 16, 2, seed), seed);
      auto reps = membership.replicas(m.id());
      if (reps.front() != owner ||
          std::find(pair.begin(), pair.end(), reps[1]) != pair.end()) {
        continue;
      }
      ASSERT_TRUE(env.run(env.put(m)).ok());
      ++stored;
      break;
    }
  }
  for (ProviderId p : pair) {
    ASSERT_TRUE(membership.is_recovering(p));
    env.injector.restart_node(env.provider_nodes[p]);
  }
  // Up again, both still recovering: their replays have not landed yet.
  for (ProviderId p : pair) EXPECT_TRUE(membership.is_recovering(p));
  uint64_t scanned = 0;
  for (size_t p = 0; p < env.repo->provider_count(); ++p) {
    scanned -= env.repo->provider(p).stats().lcp_models_scanned;
  }
  auto r = env.run(env.client().query_lcp(q));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->partial);
  ASSERT_TRUE(r->found);
  EXPECT_EQ(r->ancestor, answer.id());
  for (size_t p = 0; p < env.repo->provider_count(); ++p) {
    scanned += env.repo->provider(p).stats().lcp_models_scanned;
  }
  EXPECT_EQ(scanned, stored);
  EXPECT_EQ(env.repo->total_client_fault_stats().lcp_takeovers, 1u);
  env.settle(1.0);
  for (ProviderId p : pair) EXPECT_FALSE(membership.is_recovering(p));
}

// k = 1 keeps the single-owner behavior: each provider scans its whole
// catalog, there is no replica to take a failed leg over, and the reduce is
// tagged partial.
TEST(Replication, SingleReplicaFailedLegIsPartial) {
  ReplEnv env(3, {}, /*replication=*/1);
  constexpr uint64_t kModels = 9;
  for (uint64_t i = 0; i < kModels; ++i) {
    auto g = chain_graph(5, 16, static_cast<int>(i % 3), 3 + i);
    ASSERT_TRUE(env.run(env.put(env.make_model(g, i + 1))).ok());
  }
  auto q = chain_graph(5, 16);
  auto ok = env.run(env.client().query_lcp(q));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->found);
  EXPECT_FALSE(ok->partial);
  uint64_t scanned = 0;
  for (size_t p = 0; p < env.repo->provider_count(); ++p) {
    scanned += env.repo->provider(p).stats().lcp_models_scanned;
  }
  EXPECT_EQ(scanned, kModels);

  env.injector.crash_node(env.provider_nodes[0]);
  auto degraded = env.run(env.client().query_lcp(q));
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->partial);
  const ClientFaultStats faults = env.repo->total_client_fault_stats();
  EXPECT_EQ(faults.partial_lcp_queries, 1u);
  EXPECT_EQ(faults.lcp_takeovers, 0u);
}

}  // namespace
}  // namespace evostore::core

// Tests of the benchmark's own helpers: percentile selection, failure
// accounting, and the two decorators' forwarding.
#include <gtest/gtest.h>

#include <cmath>

#include "decorators.h"
#include "harness.h"
#include "storage/mem_kv.h"

namespace perfbench {
namespace {

namespace core = evostore::core;
namespace model = evostore::model;
namespace sim = evostore::sim;

std::vector<double> one_to(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  EXPECT_FALSE(percentile(one_to(99), 0.9).has_value());
  EXPECT_EQ(percentile(one_to(100), 0.9), 90.0);
  EXPECT_FALSE(percentile(one_to(19), 0.5).has_value());
  EXPECT_EQ(percentile(one_to(20), 0.5), 10.0);
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Percentile, TailIsHighestSupported) {
  EXPECT_EQ(tail_quantile(1000), 0.99);
  EXPECT_EQ(tail_quantile(999), 0.9);
  EXPECT_EQ(tail_quantile(100), 0.9);
  EXPECT_EQ(tail_quantile(99), 0.5);
  EXPECT_EQ(tail_quantile(19), 0.0);
}

TEST(OpCount, FailedFraction) {
  OpCount ops;
  EXPECT_EQ(ops.failed_frac(), 0.0);
  for (int i = 0; i < 8; ++i) ops.record(i != 3);
  ops.check(true);
  ops.check(false);  // a failed check on an operation already counted
  EXPECT_EQ(ops.attempted, 8u);
  EXPECT_EQ(ops.failed, 2u);
  EXPECT_DOUBLE_EQ(ops.failed_frac(), 0.25);
  OpCount more;
  more.record(false);
  ops.merge(more);
  EXPECT_EQ(ops.attempted, 9u);
  EXPECT_EQ(ops.failed, 3u);
}

TEST(Digest, SensitiveToEveryBit) {
  Digest a;
  Digest b;
  a.add_f64(0.1);
  b.add_f64(std::nextafter(0.1, 1.0));
  EXPECT_NE(a.value(), b.value());
  Digest c;
  c.add_f64(0.1);
  EXPECT_EQ(a.value(), c.value());
}

TEST(CountingKv, ForwardsStatusAndBytes) {
  evostore::storage::MemKv direct;
  evostore::storage::MemKv inner;
  KvCounts counts;
  CountingKv kv(&inner, &counts, /*timed=*/true);
  evostore::common::Buffer value =
      evostore::common::Buffer::synthetic(4096, 7);

  EXPECT_EQ(kv.put("a", value).code(), direct.put("a", value).code());
  EXPECT_EQ(kv.put("b", value).code(), direct.put("b", value).code());
  EXPECT_EQ(kv.erase("b").code(), direct.erase("b").code());
  EXPECT_EQ(kv.erase("missing").code(), direct.erase("missing").code());
  EXPECT_FALSE(kv.erase("missing").ok());
  auto got = kv.get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->content_equals(value));
  EXPECT_EQ(kv.get("b").status().code(), direct.get("b").status().code());
  EXPECT_EQ(kv.size(), direct.size());
  EXPECT_EQ(kv.keys(), direct.keys());
  EXPECT_EQ(kv.value_bytes(), direct.value_bytes());
  EXPECT_EQ(kv.logical_value_bytes(), direct.logical_value_bytes());

  EXPECT_EQ(counts.puts, 2u);
  EXPECT_EQ(counts.erases, 3u);
  EXPECT_EQ(counts.put_bytes, 2u * 4096u);
  EXPECT_GE(counts.host_s, 0.0);
}

/// A repository whose every call takes `delay` simulated seconds and
/// answers with `status`.
class FakeRepository final : public core::ModelRepository {
 public:
  FakeRepository(sim::Simulation* sim, double delay, Status status)
      : sim_(sim), delay_(delay), status_(std::move(status)) {}

  std::string name() const override { return "fake"; }
  ModelId allocate_id() override { return ModelId{++next_}; }
  sim::CoTask<Result<std::optional<core::TransferContext>>> prepare_transfer(
      NodeId, const model::ArchGraph&, bool) override {
    co_await sim_->delay(delay_);
    if (!status_.ok()) co_return status_;
    co_return std::optional<core::TransferContext>{};
  }
  sim::CoTask<Status> store(NodeId, const model::Model& m,
                            const core::TransferContext*) override {
    const model::Model copy = m;
    co_await sim_->delay(delay_);
    if (status_.ok()) models_[copy.id().value] = copy;
    co_return status_;
  }
  sim::CoTask<Result<model::Model>> load(NodeId, ModelId id) override {
    co_await sim_->delay(delay_);
    if (!status_.ok()) co_return status_;
    co_return models_.at(id.value);
  }
  sim::CoTask<Status> retire(NodeId, ModelId id) override {
    co_await sim_->delay(delay_);
    models_.erase(id.value);
    co_return status_;
  }
  size_t stored_payload_bytes() const override { return 123; }

 private:
  sim::Simulation* sim_;
  double delay_;
  Status status_;
  uint64_t next_ = 0;
  std::map<uint64_t, model::Model> models_;
};

model::Model small_model(ModelId id) {
  auto g = model::ArchGraph::from_parts(
      {model::make_dense(4, 8), model::make_dense(8, 2)}, {{0, 1}});
  return model::Model::random(id, std::move(g).value(), 99);
}

TEST(TimedRepository, ForwardsAndTimesCalls) {
  sim::Simulation simulation;
  FakeRepository fake(&simulation, 0.25, Status::Ok());
  RepoCalls calls;
  SpanLog spans;
  spans.enable();
  TimedRepository repo(&fake, &simulation, &calls, &spans);
  EXPECT_EQ(repo.name(), "fake");
  EXPECT_EQ(repo.stored_payload_bytes(), 123u);

  const model::Model m = small_model(repo.allocate_id());
  auto run = [&]() -> sim::CoTask<void> {
    EXPECT_TRUE((co_await repo.store(0, m, nullptr)).ok());
    auto t = co_await repo.prepare_transfer(0, m.graph(), true);
    EXPECT_TRUE(t.ok());
    auto back = co_await repo.load(0, m.id());
    EXPECT_TRUE(back.ok());
    if (back.ok()) {
      EXPECT_EQ(segment_identities(*back), segment_identities(m));
    }
    EXPECT_EQ(calls.stored.at(m.id().value), segment_identities(m));
    EXPECT_TRUE((co_await repo.retire(0, m.id())).ok());
  };
  simulation.run_until_complete(run());

  EXPECT_EQ(calls.store_s, std::vector<double>{0.25});
  EXPECT_EQ(calls.transfer_s, std::vector<double>{0.25});
  EXPECT_TRUE(calls.stored.empty());
  EXPECT_EQ(calls.ops.attempted, 4u);
  EXPECT_EQ(calls.ops.failed, 0u);
  ASSERT_EQ(spans.spans().size(), 4u);
  EXPECT_STREQ(spans.spans()[0].name, "store");
  EXPECT_EQ(spans.spans()[0].request, m.id().value);
  EXPECT_DOUBLE_EQ(spans.spans()[3].sim_end - spans.spans()[3].sim_start, 0.25);
}

TEST(TimedRepository, ForwardsFailures) {
  sim::Simulation simulation;
  FakeRepository fake(&simulation, 0.5, Status::Unavailable("down"));
  RepoCalls calls;
  SpanLog spans;  // disabled: no spans recorded
  TimedRepository repo(&fake, &simulation, &calls, &spans);
  const model::Model m = small_model(ModelId{1});
  auto run = [&]() -> sim::CoTask<void> {
    Status st = co_await repo.store(0, m, nullptr);
    EXPECT_EQ(st.code(), evostore::common::ErrorCode::kUnavailable);
    auto t = co_await repo.prepare_transfer(0, m.graph(), false);
    EXPECT_EQ(t.status().code(), evostore::common::ErrorCode::kUnavailable);
  };
  simulation.run_until_complete(run());
  EXPECT_TRUE(calls.stored.empty());  // failed stores are not recorded
  EXPECT_EQ(calls.ops.attempted, 2u);
  EXPECT_EQ(calls.ops.failed, 2u);
  EXPECT_TRUE(spans.spans().empty());
}

}  // namespace
}  // namespace perfbench

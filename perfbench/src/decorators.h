// Benchmark-side decorators around the two storage interfaces the
// workloads drive: a KvStore that counts what a provider persists, and a
// ModelRepository that times every call the NAS runner makes. Both forward
// each call unchanged, so statuses, bytes and simulated time are exactly the
// wrapped object's.
#pragma once

#include <map>
#include <vector>

#include "core/repository.h"
#include "harness.h"
#include "storage/kv_store.h"

namespace perfbench {

using evostore::common::Hash128;
using evostore::common::ModelId;
using evostore::common::NodeId;
using evostore::common::Result;
using evostore::common::Status;

struct KvCounts {
  uint64_t puts = 0;
  uint64_t erases = 0;
  uint64_t put_bytes = 0;  // logical value bytes handed to put
  double host_s = 0;       // host seconds inside put/erase (when timed)
};

/// Counts puts, erases and put bytes of a provider backend. Host time inside
/// the backend is measured only when `timed`, so the untimed decorator adds
/// two integer increments per call.
class CountingKv final : public evostore::storage::KvStore {
 public:
  CountingKv(evostore::storage::KvStore* inner, KvCounts* counts, bool timed)
      : inner_(inner), counts_(counts), timed_(timed) {}

  Status put(std::string_view key, evostore::common::Buffer value) override;
  Result<evostore::common::Buffer> get(std::string_view key) const override {
    return inner_->get(key);
  }
  Status erase(std::string_view key) override;
  bool contains(std::string_view key) const override {
    return inner_->contains(key);
  }
  size_t size() const override { return inner_->size(); }
  std::vector<std::string> keys() const override { return inner_->keys(); }
  size_t value_bytes() const override { return inner_->value_bytes(); }
  size_t logical_value_bytes() const override {
    return inner_->logical_value_bytes();
  }

 private:
  evostore::storage::KvStore* inner_;
  KvCounts* counts_;
  bool timed_;
};

/// Simulated latencies of the repository calls, plus what verification
/// needs: the per-vertex identity of every model stored.
struct RepoCalls {
  std::vector<double> transfer_s;  // prepare_transfer, simulated seconds
  std::vector<double> store_s;     // store, simulated seconds
  OpCount ops;
  std::map<uint64_t, std::vector<Hash128>> stored;  // model id -> identities
  /// When set, every graph passed to prepare_transfer is kept for the
  /// host-cost replays that follow the timed phase.
  bool record_queries = false;
  std::vector<evostore::model::ArchGraph> queries;
};

/// Per-vertex identity() of a model's segments, in vertex order.
std::vector<Hash128> segment_identities(const evostore::model::Model& m);

/// Times every call into `inner` on the simulated clock and, when `spans`
/// is enabled, records one span per call. The parent of a span is the
/// calling client's node; its request id is the model id (0 for
/// prepare_transfer, whose model does not exist yet).
class TimedRepository final : public evostore::core::ModelRepository {
 public:
  TimedRepository(evostore::core::ModelRepository* inner,
                  evostore::sim::Simulation* sim, RepoCalls* calls,
                  SpanLog* spans)
      : inner_(inner), sim_(sim), calls_(calls), spans_(spans) {}

  std::string name() const override { return inner_->name(); }
  ModelId allocate_id() override { return inner_->allocate_id(); }
  evostore::sim::CoTask<
      Result<std::optional<evostore::core::TransferContext>>>
  prepare_transfer(NodeId client, const evostore::model::ArchGraph& g,
                   bool fetch_payload) override;
  evostore::sim::CoTask<Status> store(
      NodeId client, const evostore::model::Model& m,
      const evostore::core::TransferContext* tc) override;
  evostore::sim::CoTask<Result<evostore::model::Model>> load(
      NodeId client, ModelId id) override;
  evostore::sim::CoTask<Status> retire(NodeId client, ModelId id) override;
  size_t stored_payload_bytes() const override {
    return inner_->stored_payload_bytes();
  }

 private:
  Span begin(const char* name, uint64_t request, NodeId client) const;
  void end(Span& span);

  evostore::core::ModelRepository* inner_;
  evostore::sim::Simulation* sim_;
  RepoCalls* calls_;
  SpanLog* spans_;
};

}  // namespace perfbench

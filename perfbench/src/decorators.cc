#include "decorators.h"

namespace perfbench {

namespace sim = evostore::sim;
namespace core = evostore::core;
namespace model = evostore::model;

Status CountingKv::put(std::string_view key, evostore::common::Buffer value) {
  ++counts_->puts;
  counts_->put_bytes += value.size();
  if (!timed_) return inner_->put(key, std::move(value));
  double t0 = host_now();
  Status st = inner_->put(key, std::move(value));
  counts_->host_s += host_now() - t0;
  return st;
}

Status CountingKv::erase(std::string_view key) {
  ++counts_->erases;
  if (!timed_) return inner_->erase(key);
  double t0 = host_now();
  Status st = inner_->erase(key);
  counts_->host_s += host_now() - t0;
  return st;
}

std::vector<Hash128> segment_identities(const model::Model& m) {
  std::vector<Hash128> ids;
  ids.reserve(m.vertex_count());
  for (evostore::common::VertexId v = 0; v < m.vertex_count(); ++v) {
    ids.push_back(m.segment(v).identity());
  }
  return ids;
}

Span TimedRepository::begin(const char* name, uint64_t request,
                            NodeId client) const {
  Span s;
  s.name = name;
  s.sim_start = sim_->now();
  s.request = request;
  s.parent = client;
  if (spans_->enabled()) s.host_start = host_now();
  return s;
}

void TimedRepository::end(Span& span) {
  span.sim_end = sim_->now();
  if (spans_->enabled()) {
    span.host_end = host_now();
    spans_->add(span);
  }
}

// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
sim::CoTask<Result<std::optional<core::TransferContext>>>
TimedRepository::prepare_transfer(NodeId client, const model::ArchGraph& g,
                                  bool fetch_payload) {
  if (calls_->record_queries) calls_->queries.push_back(g);
  Span span = begin("prepare_transfer", 0, client);
  auto r = co_await inner_->prepare_transfer(client, g, fetch_payload);
  end(span);
  calls_->transfer_s.push_back(span.sim_end - span.sim_start);
  calls_->ops.record(r.ok());
  co_return r;
}

// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
sim::CoTask<Status> TimedRepository::store(NodeId client, const model::Model& m,
                                           const core::TransferContext* tc) {
  // Identities are taken before the call: `m` belongs to the caller.
  const uint64_t id = m.id().value;
  std::vector<Hash128> identities = segment_identities(m);
  Span span = begin("store", id, client);
  Status st = co_await inner_->store(client, m, tc);
  end(span);
  calls_->store_s.push_back(span.sim_end - span.sim_start);
  calls_->ops.record(st.ok());
  if (st.ok()) calls_->stored[id] = std::move(identities);
  co_return st;
}

sim::CoTask<Result<model::Model>> TimedRepository::load(NodeId client,
                                                        ModelId id) {
  Span span = begin("load", id.value, client);
  auto r = co_await inner_->load(client, id);
  end(span);
  calls_->ops.record(r.ok());
  co_return r;
}

sim::CoTask<Status> TimedRepository::retire(NodeId client, ModelId id) {
  Span span = begin("retire", id.value, client);
  Status st = co_await inner_->retire(client, id);
  end(span);
  calls_->ops.record(st.ok());
  if (st.ok()) calls_->stored.erase(id.value);
  co_return st;
}

}  // namespace perfbench

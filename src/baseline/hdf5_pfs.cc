#include "baseline/hdf5_pfs.h"

#include <algorithm>

#include "common/fields.h"
#include "common/log.h"

namespace evostore::baseline {

using common::Buffer;
using model::Model;
using model::Segment;

Hdf5PfsRepository::Hdf5PfsRepository(storage::Pfs& pfs, RedisQueries* redis,
                                     Hdf5PfsConfig config)
    : pfs_(&pfs), redis_(redis), config_(config), sim_(nullptr) {}

std::string Hdf5PfsRepository::dataset_path(common::VertexId v, size_t slot) {
  return "/model_weights/v" + std::to_string(v) + "/t" + std::to_string(slot);
}

sim::CoTask<void> Hdf5PfsRepository::charge_staging(double bytes,
                                                    size_t datasets) {
  io_.staged_bytes += bytes;
  // One execution context launch + per-dataset bookkeeping + memcpy of all
  // tensor payloads through NumPy staging arrays.
  co_await pfs_->simulation().delay(
      config_.context_setup_seconds +
      config_.per_dataset_seconds * static_cast<double>(datasets) +
      bytes / config_.staging_bandwidth);
}

// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
sim::CoTask<Status> Hdf5PfsRepository::store(NodeId client, const Model& m,
                                             const core::TransferContext* tc) {
  (void)tc;  // no incremental storage: the full model is always written
  ++io_.stores;
  bool need_weights = true;
  if (redis_ != nullptr) {
    auto add = co_await redis_->begin_add(client, m.id(), m.graph(),
                                          m.quality());
    if (!add.status.ok()) co_return add.status;
    need_weights = add.need_weights;
  }
  if (need_weights) {
    storage::H5Writer writer;
    // store() is always awaited by the frame that owns the model (never
    // spawned detached), so `m` outlives this coroutine by contract.
    // evo-lint: suppress(EVO-CORO-003) m pinned by the awaiting caller
    common::Bytes arch_bytes = common::encode(m.graph());
    writer.put_attr("arch", std::string(
                                reinterpret_cast<const char*>(arch_bytes.data()),
                                arch_bytes.size()));
    writer.put_attr("quality", std::to_string(m.quality()));
    size_t datasets = 0;
    for (common::VertexId v = 0; v < m.vertex_count(); ++v) {
      const Segment& seg = m.segment(v);
      for (size_t slot = 0; slot < seg.tensors.size(); ++slot) {
        auto st = writer.put_dataset(dataset_path(v, slot), seg.tensors[slot]);
        if (!st.ok()) co_return st;
        ++datasets;
      }
    }
    co_await charge_staging(static_cast<double>(m.total_bytes()), datasets);
    auto st = co_await pfs_->write(client, RedisQueries::weights_path(m.id()),
                                   std::move(writer).finish());
    if (!st.ok()) co_return st;
  }
  if (redis_ != nullptr) {
    co_return co_await redis_->finish_add(client, m.id());
  }
  co_return Status::Ok();
}

sim::CoTask<Result<Model>> Hdf5PfsRepository::load(NodeId client, ModelId id) {
  ++io_.loads;
  auto extents = co_await pfs_->read(client, RedisQueries::weights_path(id));
  if (!extents.ok()) co_return extents.status();
  auto reader = storage::H5Reader::open(std::move(extents).value());
  if (!reader.ok()) co_return reader.status();
  auto arch_attr = reader->attr("arch");
  if (!arch_attr.ok()) co_return arch_attr.status();
  common::Deserializer d(std::as_bytes(std::span(*arch_attr)));
  auto graph = common::decode<model::ArchGraph>(d);
  if (!d.ok()) co_return d.status();
  Model m(id, std::move(graph));
  auto quality_attr = reader->attr("quality");
  if (quality_attr.ok()) m.set_quality(std::stod(quality_attr.value()));
  size_t datasets = 0;
  double bytes = 0;
  for (common::VertexId v = 0; v < m.vertex_count(); ++v) {
    Segment& seg = m.segment(v);
    for (size_t slot = 0;; ++slot) {
      auto t = reader->dataset(dataset_path(v, slot));
      if (!t.ok()) break;
      bytes += static_cast<double>(t->nbytes());
      seg.tensors.push_back(std::move(t).value());
      ++datasets;
    }
  }
  co_await charge_staging(bytes, datasets);
  co_return m;
}

sim::CoTask<Result<std::optional<core::TransferContext>>>
// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
Hdf5PfsRepository::prepare_transfer(NodeId client, const ArchGraph& g,
                                    bool fetch_payload) {
  if (redis_ == nullptr) {
    co_return std::optional<core::TransferContext>{};
  }
  auto q = co_await redis_->query(client, g);
  if (!q.ok()) co_return q.status();
  if (!q->found) co_return std::optional<core::TransferContext>{};

  core::TransferContext tc;
  tc.ancestor = q->ancestor;
  tc.ancestor_quality = q->quality;
  tc.matches = q->matches;

  Status status;
  if (fetch_payload) {
    // HDF5 partial read: fetch the TOC, then one ranged read per tensor of
    // the prefix — each paying the PFS per-op cost. The reads charge the
    // I/O; their zero-copy slices are dropped, since the tensors are taken
    // from the layout parsed out of the peeked extents.
    std::string path = RedisQueries::weights_path(tc.ancestor);
    const auto* extents = pfs_->peek(path);
    if (extents == nullptr || extents->empty()) {
      status = Status::NotFound("weights file " + path);
    } else {
      auto toc = co_await pfs_->read_range(client, path, 0,
                                           (*extents)[0].size());
      ++io_.ranged_reads;
      if (!toc.ok()) {
        status = toc.status();
      } else {
        auto reader = storage::H5Reader::open(*extents);
        if (!reader.ok()) {
          status = reader.status();
        } else {
          // Ranged-read every tensor belonging to a matched ancestor vertex.
          size_t offset = (*extents)[0].size();
          std::map<common::VertexId, std::map<size_t, size_t>> ranges;
          size_t extent_index = 1;
          for (const auto& dpath : reader->dataset_paths()) {
            // dataset_path format: /model_weights/v<vertex>/t<slot>
            common::VertexId v = 0;
            size_t slot = 0;
            if (std::sscanf(dpath.c_str(), "/model_weights/v%u/t%zu", &v,
                            &slot) == 2) {
              ranges[v][slot] = offset;
            }
            offset += (*extents)[extent_index].size();
            ++extent_index;
          }
          tc.prefix_segments.resize(tc.matches.size());
          for (size_t i = 0; i < tc.matches.size() && status.ok(); ++i) {
            common::VertexId av = tc.matches[i].second;
            Segment seg;
            for (size_t slot = 0;; ++slot) {
              auto t = reader->dataset(dataset_path(av, slot));
              if (!t.ok()) break;
              if (config_.partial_read_seconds > 0) {
                co_await pfs_->simulation().delay(config_.partial_read_seconds);
              }
              auto r = co_await pfs_->read_range(client, path,
                                                 ranges[av][slot], t->nbytes());
              ++io_.ranged_reads;
              if (!r.ok()) {
                status = r.status();
                break;
              }
              seg.tensors.push_back(std::move(t).value());
            }
            tc.prefix_segments[i] = std::move(seg);
          }
        }
      }
    }
  }
  // Unpin regardless of payload outcome; a dropped last reference means the
  // ancestor was retired while pinned and its file is now ours to delete.
  auto unpin = co_await redis_->unpin(client, tc.ancestor);
  if (unpin.status.ok() && unpin.remove_weights) {
    auto removed =
        co_await pfs_->remove(client, RedisQueries::weights_path(tc.ancestor));
    if (!removed.ok()) {
      // Best-effort cleanup: the load itself succeeded, but a leaked file
      // would silently distort stored-bytes accounting, so make it visible.
      EVO_WARN << "hdf5+pfs: removing retired ancestor "
               << tc.ancestor.value
               << " weights failed: " << removed.message();
    }
  }
  if (!status.ok()) co_return status;
  co_return std::optional<core::TransferContext>(std::move(tc));
}

sim::CoTask<Status> Hdf5PfsRepository::retire(NodeId client, ModelId id) {
  if (redis_ == nullptr) {
    co_return co_await pfs_->remove(client, RedisQueries::weights_path(id));
  }
  auto r = co_await redis_->retire(client, id);
  if (!r.status.ok()) co_return r.status;
  if (r.remove_weights) {
    co_return co_await pfs_->remove(client, RedisQueries::weights_path(id));
  }
  co_return Status::Ok();
}

}  // namespace evostore::baseline

#include "storage/pfs.h"

#include <algorithm>

#include "common/hash.h"

namespace evostore::storage {

using common::Buffer;
using common::NodeId;
using common::Result;
using common::Status;

Pfs::Pfs(net::Fabric& fabric, PfsConfig config)
    : fabric_(&fabric), config_(config) {
  double per_ost = config_.aggregate_bandwidth / config_.ost_count;
  ost_ports_.reserve(config_.ost_count);
  for (int i = 0; i < config_.ost_count; ++i) {
    ost_ports_.push_back(
        fabric_->flows().add_port(per_ost, "ost" + std::to_string(i)));
  }
  mds_slots_ = std::make_unique<sim::Semaphore>(fabric_->simulation(),
                                                config_.mds_parallelism);
}

sim::CoTask<void> Pfs::mds_op() {
  ++mds_ops_;
  co_await mds_slots_->acquire();
  co_await fabric_->simulation().delay(config_.mds_op_seconds);
  mds_slots_->release();
}

// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
sim::CoTask<void> Pfs::data_transfer(NodeId client, const File& file,
                                     size_t bytes, bool to_ost) {
  if (bytes == 0) co_return;
  size_t n_stripes = (bytes + config_.stripe_size - 1) / config_.stripe_size;
  size_t k = std::min<size_t>(n_stripes, config_.stripe_count);
  double per_ost_bytes = static_cast<double>(bytes) / static_cast<double>(k);
  std::vector<sim::Future<void>> transfers;
  transfers.reserve(k);
  auto& sim = fabric_->simulation();
  for (size_t i = 0; i < k; ++i) {
    sim::PortId ost = ost_ports_[(file.first_ost + i) % ost_ports_.size()];
    std::vector<sim::PortId> path;
    if (to_ost) {
      path.push_back(fabric_->egress_port(client));
      path.push_back(ost);
    } else {
      path.push_back(ost);
      path.push_back(fabric_->ingress_port(client));
    }
    transfers.push_back(
        sim.spawn(fabric_->flows().transfer(std::move(path), per_ost_bytes)));
  }
  for (auto& t : transfers) co_await t;
}

// Coroutine path params are by value: the string must live in this frame,
// not the caller's (EVO-CORO-003).
sim::CoTask<Status> Pfs::write(NodeId client, std::string path,
                               std::vector<Buffer> extents) {
  co_await mds_op();  // create/open
  File file;
  file.extents = std::move(extents);
  for (const auto& e : file.extents) file.size += e.size();
  file.first_ost =
      static_cast<uint32_t>(common::fnv1a64(path) % ost_ports_.size());
  co_await data_transfer(client, file, file.size, /*to_ost=*/true);
  auto it = files_.find(path);
  if (it != files_.end()) {
    stored_bytes_ -= it->second.size;
    it->second = std::move(file);
    stored_bytes_ += it->second.size;
  } else {
    stored_bytes_ += file.size;
    files_.emplace(path, std::move(file));
  }
  co_return Status::Ok();
}

sim::CoTask<Result<std::vector<Buffer>>> Pfs::read(NodeId client,
                                                   std::string path) {
  co_await mds_op();  // open/stat
  auto it = files_.find(path);
  if (it == files_.end()) {
    co_return Status::NotFound("pfs file '" + path + "'");
  }
  co_await data_transfer(client, it->second, it->second.size,
                         /*to_ost=*/false);
  co_return it->second.extents;
}

sim::CoTask<Result<std::vector<Buffer>>> Pfs::read_range(NodeId client,
                                                         std::string path,
                                                         size_t offset,
                                                         size_t len) {
  co_await mds_op();
  auto it = files_.find(path);
  if (it == files_.end()) {
    co_return Status::NotFound("pfs file '" + path + "'");
  }
  const File& file = it->second;
  if (len > file.size || offset > file.size - len) {
    co_return Status::OutOfRange("range past end of file");
  }
  // Gather the range as extent slices before the transfer suspends us, so a
  // concurrent overwrite or remove cannot pull the file out from under it.
  std::vector<Buffer> slices;
  size_t end = offset + len;
  size_t ext_start = 0;
  for (const auto& e : file.extents) {
    if (ext_start >= end) break;
    size_t ext_end = ext_start + e.size();
    size_t from = std::max(offset, ext_start);
    size_t to = std::min(end, ext_end);
    if (from < to) slices.push_back(e.slice(from - ext_start, to - from));
    ext_start = ext_end;
  }
  co_await data_transfer(client, file, len, /*to_ost=*/false);
  co_return slices;
}

sim::CoTask<bool> Pfs::exists(NodeId client, std::string path) {
  (void)client;
  co_await mds_op();
  co_return files_.find(path) != files_.end();
}

sim::CoTask<Status> Pfs::remove(NodeId client, std::string path) {
  (void)client;
  co_await mds_op();
  auto it = files_.find(path);
  if (it == files_.end()) {
    co_return Status::NotFound("pfs file '" + path + "'");
  }
  stored_bytes_ -= it->second.size;
  files_.erase(it);
  co_return Status::Ok();
}

}  // namespace evostore::storage

#include "storage/h5file.h"

#include "common/serde.h"

namespace evostore::storage {

using common::Buffer;
using common::Result;
using common::Status;

namespace {
constexpr uint32_t kMagic = 0x45564835;  // "EVH5"
constexpr uint32_t kVersion = 1;
}  // namespace

Status H5Writer::put_dataset(const std::string& path, model::Tensor tensor) {
  for (const auto& e : datasets_) {
    if (e.path == path) {
      return Status::AlreadyExists("dataset '" + path + "'");
    }
  }
  datasets_.push_back(Entry{path, std::move(tensor)});
  return Status::Ok();
}

void H5Writer::put_attr(const std::string& key, const std::string& value) {
  attrs_[key] = value;
}

std::vector<Buffer> H5Writer::finish() && {
  common::Serializer toc;
  toc.u32(kMagic);
  toc.u32(kVersion);
  toc.u64(attrs_.size());
  for (const auto& [k, v] : attrs_) {
    toc.str(k);
    toc.str(v);
  }
  toc.u64(datasets_.size());
  for (const auto& e : datasets_) {
    toc.str(e.path);
    e.tensor.spec().serialize(toc);
    toc.u64(e.tensor.nbytes());
  }
  std::vector<Buffer> extents;
  extents.reserve(1 + datasets_.size());
  extents.push_back(Buffer::dense(std::move(toc).take()));
  for (auto& e : datasets_) {
    extents.push_back(e.tensor.data());
  }
  return extents;
}

Result<H5Reader> H5Reader::open(std::vector<Buffer> extents) {
  if (extents.empty()) return Status::Corruption("empty file image");
  // The writer always emits a dense TOC; never materialize a synthetic one.
  if (extents[0].is_synthetic()) return Status::Corruption("synthetic TOC");
  common::Deserializer d(extents[0].dense_span());
  if (d.u32() != kMagic) return Status::Corruption("bad magic");
  if (d.u32() != kVersion) return Status::Corruption("unsupported version");
  H5Reader reader;
  uint64_t n_attrs = d.u64();
  if (!d.ok()) return Status::Corruption("bad TOC header");
  for (uint64_t i = 0; i < n_attrs && d.ok(); ++i) {
    std::string k = d.str();
    std::string v = d.str();
    reader.attrs_[k] = v;
  }
  uint64_t n_datasets = d.u64();
  if (!d.ok()) return Status::Corruption("bad dataset directory");
  if (extents.size() != 1 + n_datasets) {
    return Status::Corruption("extent count does not match TOC");
  }
  for (uint64_t i = 0; i < n_datasets && d.ok(); ++i) {
    std::string path = d.str();
    model::TensorSpec spec = model::TensorSpec::deserialize(d);
    uint64_t nbytes = d.u64();
    if (!d.ok()) break;
    if (extents[1 + i].size() != nbytes || spec.nbytes() != nbytes) {
      return Status::Corruption("dataset '" + path + "' size mismatch");
    }
    reader.order_.push_back(path);
    reader.datasets_[path] = Entry{std::move(spec), extents[1 + i]};
  }
  EVO_RETURN_IF_ERROR(d.finish());
  return reader;
}

std::vector<std::string> H5Reader::dataset_paths() const { return order_; }

bool H5Reader::has_dataset(const std::string& path) const {
  return datasets_.find(path) != datasets_.end();
}

Result<model::Tensor> H5Reader::dataset(const std::string& path) const {
  auto it = datasets_.find(path);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + path + "'");
  }
  return model::Tensor(it->second.spec, it->second.payload);
}

Result<std::string> H5Reader::attr(const std::string& key) const {
  auto it = attrs_.find(key);
  if (it == attrs_.end()) return Status::NotFound("attr '" + key + "'");
  return it->second;
}

}  // namespace evostore::storage

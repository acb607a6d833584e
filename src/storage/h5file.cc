#include "storage/h5file.h"

#include <utility>

#include "common/fields.h"

namespace evostore::storage {

using common::Buffer;
using common::Result;
using common::Status;

namespace {

constexpr uint32_t kMagic = 0x45564835;  // "EVH5"
constexpr uint32_t kVersion = 1;

struct TocDataset {
  std::string path;
  model::TensorSpec spec;
  uint64_t nbytes = 0;

  template <class V>
  void fields(V& v) { v(path, spec, nbytes); }
};

/// Extent 0 of a file image.
struct Toc {
  uint32_t magic = kMagic;
  uint32_t version = kVersion;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<TocDataset> datasets;

  template <class V>
  void fields(V& v) { v(magic, version, attrs, datasets); }
};

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
  Toc toc;
  toc.attrs.assign(attrs_.begin(), attrs_.end());
  std::vector<Buffer> extents(1);  // extents[0], the TOC, is encoded last
  for (const auto& e : datasets_) {
    toc.datasets.push_back({e.path, e.tensor.spec(), e.tensor.nbytes()});
    extents.push_back(e.tensor.data());
  }
  extents[0] = Buffer::dense(common::encode(toc));
  return extents;
}

Result<H5Reader> H5Reader::open(std::vector<Buffer> extents) {
  if (extents.empty()) return Status::Corruption("empty file image");
  // The writer always emits a dense TOC; never materialize a synthetic one.
  if (extents[0].is_synthetic()) return Status::Corruption("synthetic TOC");
  common::Deserializer d(extents[0].dense_span());
  auto toc = common::decode<Toc>(d);
  if (toc.magic != kMagic) return Status::Corruption("bad magic");
  if (toc.version != kVersion) {
    return Status::Corruption("unsupported version");
  }
  EVO_RETURN_IF_ERROR(d.finish());
  if (extents.size() != 1 + toc.datasets.size()) {
    return Status::Corruption("extent count does not match TOC");
  }
  H5Reader reader;
  for (auto& [k, v] : toc.attrs) reader.attrs_[k] = std::move(v);
  for (size_t i = 0; i < toc.datasets.size(); ++i) {
    TocDataset& e = toc.datasets[i];
    if (extents[1 + i].size() != e.nbytes || e.spec.nbytes() != e.nbytes) {
      return Status::Corruption("dataset '" + e.path + "' size mismatch");
    }
    reader.order_.push_back(e.path);
    reader.datasets_[e.path] = Entry{std::move(e.spec), extents[1 + i]};
  }
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

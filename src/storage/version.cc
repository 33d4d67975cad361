#include "storage/version.h"

#include <algorithm>

#include "common/logging.h"

namespace pstorm::storage {

TableHandle::~TableHandle() {
  if (!obsolete_.load(std::memory_order_acquire)) return;
  const Status s = env_->DeleteFile(JoinPath(dir_, name_));
  if (!s.ok()) {
    PSTORM_LOG(Warning) << "db " << dir_ << ": leaving obsolete file "
                        << name_
                        << " for the next open to sweep: " << s.ToString();
  }
}

Result<std::optional<Table::GetResult>> Version::Get(
    std::string_view key) const {
  // Each table's answer is returned as it came, error or hit, so no record
  // is copied out of its Result on the way.
  // Level 0, newest first.
  for (const auto& handle : l0) {
    Result<std::optional<Table::GetResult>> hit = handle->table().Get(key);
    if (!hit.ok() || hit.value().has_value()) return hit;
  }
  // Level 1: tables are key-disjoint and sorted; binary search the ranges.
  auto it = std::lower_bound(
      l1.begin(), l1.end(), key,
      [](const std::shared_ptr<TableHandle>& handle, std::string_view k) {
        return handle->table().largest_key() < k;
      });
  if (it != l1.end() && key >= (*it)->table().smallest_key()) {
    return (*it)->table().Get(key);
  }
  return std::optional<Table::GetResult>();
}

void Version::AppendIterators(
    std::vector<std::unique_ptr<Iterator>>* out) const {
  for (const auto& handle : l0) out->push_back(handle->table().NewIterator());
  for (const auto& handle : l1) out->push_back(handle->table().NewIterator());
}

void Version::AppendIteratorsForPrefix(
    std::string_view prefix,
    std::vector<std::unique_ptr<Iterator>>* out) const {
  for (const auto& handle : l0) {
    if (handle->table().MayContainPrefix(prefix)) {
      out->push_back(handle->table().NewIterator());
    }
  }
  for (const auto& handle : l1) {
    if (handle->table().MayContainPrefix(prefix)) {
      out->push_back(handle->table().NewIterator());
    }
  }
}

size_t Version::TotalTableBytes() const {
  size_t bytes = 0;
  for (const auto& handle : l0) bytes += handle->table().size_bytes();
  for (const auto& handle : l1) bytes += handle->table().size_bytes();
  return bytes;
}

void Version::MarkAllObsolete() const {
  for (const auto& handle : l0) handle->MarkObsolete();
  for (const auto& handle : l1) handle->MarkObsolete();
}

}  // namespace pstorm::storage

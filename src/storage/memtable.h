#ifndef PSTORM_STORAGE_MEMTABLE_H_
#define PSTORM_STORAGE_MEMTABLE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "storage/iterator.h"

namespace pstorm::storage {

/// In-memory write buffer. Last write to a key wins in place; deletions are
/// tombstones so a delete can shadow an older value living in an SSTable.
class Memtable {
 public:
  void Put(std::string_view key, std::string_view value);
  void Delete(std::string_view key);

  struct Entry {
    std::string value;
    EntryType type;
  };
  /// The current record for `key`, tombstone included, or nothing if the
  /// memtable has no opinion (the caller then consults older sources).
  std::optional<Entry> Get(std::string_view key) const;

  /// A copy holding only the records with keys in [lower, upper); an empty
  /// `upper` means no upper bound. What a bounded iterator snapshots.
  Memtable CopyRange(std::string_view lower, std::string_view upper) const;

  /// Iterates records in key order, tombstones included. The iterator must
  /// not outlive the memtable and observes a frozen snapshot only if the
  /// memtable is no longer written to (the DB guarantees this for flushes).
  std::unique_ptr<Iterator> NewIterator() const;

  size_t num_entries() const { return entries_.size(); }
  /// Approximate bytes of key + value payload buffered.
  size_t ApproximateBytes() const { return bytes_; }
  bool empty() const { return entries_.empty(); }

 private:
  std::map<std::string, Entry, std::less<>> entries_;
  size_t bytes_ = 0;
};

}  // namespace pstorm::storage

#endif  // PSTORM_STORAGE_MEMTABLE_H_

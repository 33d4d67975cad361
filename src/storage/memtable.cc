#include "storage/memtable.h"

#include "common/logging.h"

namespace pstorm::storage {

void Memtable::Put(std::string_view key, std::string_view value) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    bytes_ += key.size() + value.size();
    entries_.emplace(std::string(key),
                     Entry{std::string(value), EntryType::kValue});
  } else {
    bytes_ += value.size();
    bytes_ -= it->second.value.size();
    it->second = Entry{std::string(value), EntryType::kValue};
  }
}

void Memtable::Delete(std::string_view key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    bytes_ += key.size();
    entries_.emplace(std::string(key), Entry{"", EntryType::kTombstone});
  } else {
    bytes_ -= it->second.value.size();
    it->second = Entry{"", EntryType::kTombstone};
  }
}

std::optional<Memtable::Entry> Memtable::Get(std::string_view key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

Memtable Memtable::CopyRange(std::string_view lower,
                            std::string_view upper) const {
  Memtable out;
  if (!upper.empty() && upper <= lower) return out;
  const auto end = upper.empty() ? entries_.end() : entries_.lower_bound(upper);
  for (auto it = entries_.lower_bound(lower); it != end; ++it) {
    out.entries_.emplace_hint(out.entries_.end(), *it);
    out.bytes_ += it->first.size() + it->second.value.size();
  }
  return out;
}

namespace {

class MemtableIterator final : public Iterator {
 public:
  using Map = std::map<std::string, Memtable::Entry, std::less<>>;

  explicit MemtableIterator(const Map* entries)
      : entries_(entries), it_(entries->end()) {}

  bool Valid() const override { return it_ != entries_->end(); }
  void SeekToFirst() override { it_ = entries_->begin(); }
  void Seek(std::string_view target) override {
    it_ = entries_->lower_bound(target);
  }
  void Next() override {
    PSTORM_CHECK(Valid());
    ++it_;
  }
  std::string_view key() const override { return it_->first; }
  std::string_view value() const override { return it_->second.value; }
  EntryType type() const override { return it_->second.type; }
  Status status() const override { return Status::OK(); }

 private:
  const Map* entries_;
  Map::const_iterator it_;
};

}  // namespace

std::unique_ptr<Iterator> Memtable::NewIterator() const {
  return std::make_unique<MemtableIterator>(&entries_);
}

}  // namespace pstorm::storage

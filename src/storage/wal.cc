#include "storage/wal.h"

#include <algorithm>

#include "common/coding.h"
#include "common/hash.h"

namespace pstorm::storage {

namespace {
constexpr size_t kFrameHeaderSize = 8;  // fixed32 length + fixed32 checksum

uint32_t PayloadChecksum(std::string_view payload) {
  return static_cast<uint32_t>(Fnv1a64(payload));
}

struct ParsedFrame {
  WalRecord record;
  uint32_t checksum = 0;
  size_t frame_size = 0;
};

/// True when `rest` starts with an intact, well-formed frame; false on a
/// torn, checksum-mismatched, or malformed one (the replay/scan stop
/// condition — never an error, per the framing contract).
bool ParseFrame(std::string_view rest, ParsedFrame* out) {
  if (rest.size() < kFrameHeaderSize) return false;  // Partial frame header.
  const uint32_t length = DecodeFixed32(rest.data());
  const uint32_t checksum = DecodeFixed32(rest.data() + 4);
  if (rest.size() - kFrameHeaderSize < length) {
    return false;  // Payload cut short by a crash.
  }
  const std::string_view payload = rest.substr(kFrameHeaderSize, length);
  if (PayloadChecksum(payload) != checksum) {
    return false;  // Torn or bit-rotted record.
  }

  std::string_view fields = payload;
  uint64_t sequence = 0;
  if (!GetVarint64(&fields, &sequence) || sequence == 0 || fields.empty()) {
    return false;
  }
  const auto type = static_cast<EntryType>(fields.front());
  fields.remove_prefix(1);
  std::string_view key, value;
  if ((type != EntryType::kValue && type != EntryType::kTombstone) ||
      !GetLengthPrefixed(&fields, &key) ||
      !GetLengthPrefixed(&fields, &value) || !fields.empty() || key.empty()) {
    return false;  // Frame intact but payload malformed.
  }
  out->record = WalRecord{sequence, type, key, value};
  out->checksum = checksum;
  out->frame_size = kFrameHeaderSize + length;
  return true;
}

}  // namespace

std::string EncodeWalRecord(uint64_t sequence, EntryType type,
                            std::string_view key, std::string_view value) {
  std::string payload;
  payload.reserve(1 + key.size() + value.size() + 20);
  PutVarint64(&payload, sequence);
  payload.push_back(static_cast<char>(type));
  PutLengthPrefixed(&payload, key);
  PutLengthPrefixed(&payload, value);

  std::string record;
  record.reserve(kFrameHeaderSize + payload.size());
  PutFixed32(&record, static_cast<uint32_t>(payload.size()));
  PutFixed32(&record, PayloadChecksum(payload));
  record += payload;
  return record;
}

Status WalWriter::Append(EntryType type, std::string_view key,
                         std::string_view value) {
  return AppendBatch(EncodeWalRecord(next_sequence_++, type, key, value),
                     /*sync=*/true);
}

Status WalWriter::AppendBatch(std::string_view records, bool sync) {
  if (file_ == nullptr) {
    PSTORM_ASSIGN_OR_RETURN(file_, env_->NewAppendableFile(path_));
  }
  Status s = file_->Append(records);
  if (s.ok() && sync) s = file_->Sync();
  // A failed append may have left part of its frame in the file, and a
  // failed sync may have left earlier pages unwritten: either way nothing
  // appended behind it is reachable by replay, so the handle goes.
  if (!s.ok()) file_.reset();
  return s;
}

Status WalWriter::Truncate() {
  // WriteFile replaces the file, so the handle must go with it.
  file_.reset();
  return env_->WriteFile(path_, "");
}

Result<WalSegment> ReadWalSegment(const Env& env, const std::string& path,
                                  uint64_t from_sequence) {
  WalSegment segment;
  if (!env.FileExists(path)) return segment;
  PSTORM_ASSIGN_OR_RETURN(std::string log, env.ReadFile(path));

  std::string_view rest(log);
  while (!rest.empty()) {
    ParsedFrame frame;
    if (!ParseFrame(rest, &frame)) {
      segment.truncated_tail = true;
      break;
    }
    if (frame.record.sequence >= from_sequence) {
      segment.records.push_back(WalRecordRef{frame.record.sequence,
                                             frame.checksum,
                                             segment.raw.size(),
                                             frame.frame_size});
      segment.raw.append(rest.substr(0, frame.frame_size));
    }
    rest.remove_prefix(frame.frame_size);
  }
  return segment;
}

Result<std::vector<WalRecord>> DecodeWalRecords(std::string_view raw) {
  std::vector<WalRecord> records;
  while (!raw.empty()) {
    ParsedFrame frame;
    if (!ParseFrame(raw, &frame)) {
      return Status::Corruption("torn or malformed frame in WAL segment");
    }
    records.push_back(frame.record);
    raw.remove_prefix(frame.frame_size);
  }
  return records;
}

WalSegment SliceWalSegment(const WalSegment& segment,
                           uint64_t from_sequence) {
  WalSegment out;
  out.truncated_tail = segment.truncated_tail;
  for (const WalRecordRef& ref : segment.records) {
    if (ref.sequence < from_sequence) continue;
    out.records.push_back(
        WalRecordRef{ref.sequence, ref.checksum, out.raw.size(), ref.size});
    out.raw.append(segment.raw, ref.offset, ref.size);
  }
  return out;
}

Result<WalReplayResult> ReplayWal(const Env& env, const std::string& path,
                                  Memtable* memtable) {
  WalReplayResult result;
  if (!env.FileExists(path)) return result;
  PSTORM_ASSIGN_OR_RETURN(std::string log, env.ReadFile(path));

  std::string_view rest(log);
  while (!rest.empty()) {
    ParsedFrame frame;
    if (!ParseFrame(rest, &frame)) {
      result.truncated_tail = true;
      break;
    }
    if (frame.record.type == EntryType::kValue) {
      memtable->Put(frame.record.key, frame.record.value);
    } else {
      memtable->Delete(frame.record.key);
    }
    ++result.records_applied;
    result.last_sequence = std::max(result.last_sequence,
                                    frame.record.sequence);
    rest.remove_prefix(frame.frame_size);
  }
  return result;
}

}  // namespace pstorm::storage

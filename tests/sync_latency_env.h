#ifndef PSTORM_TESTS_SYNC_LATENCY_ENV_H_
#define PSTORM_TESTS_SYNC_LATENCY_ENV_H_

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/result.h"
#include "common/status.h"
#include "storage/env.h"

namespace pstorm::storage {

/// Forwards every call to its target, but each append handle's Sync first
/// sleeps `latency`, the cost of a real fdatasync. InMemoryEnv syncs in
/// nanoseconds, which can let every writer finish before the next arrives;
/// with a realistic sync cost the writer queue builds up and group commit
/// has something to coalesce. The sleep burns real time, not cpu time.
class SyncLatencyEnv final : public EnvWrapper {
 public:
  SyncLatencyEnv(Env* target, std::chrono::microseconds latency)
      : EnvWrapper(target), latency_(latency) {}

  Result<std::unique_ptr<AppendableFile>> NewAppendableFile(
      const std::string& path) override {
    PSTORM_ASSIGN_OR_RETURN(std::unique_ptr<AppendableFile> file,
                            target()->NewAppendableFile(path));
    return std::unique_ptr<AppendableFile>(
        new SlowSyncFile(std::move(file), latency_));
  }

 private:
  class SlowSyncFile final : public AppendableFile {
   public:
    SlowSyncFile(std::unique_ptr<AppendableFile> file,
                 std::chrono::microseconds latency)
        : file_(std::move(file)), latency_(latency) {}
    Status Append(std::string_view data) override {
      return file_->Append(data);
    }
    Status Sync() override {
      std::this_thread::sleep_for(latency_);
      return file_->Sync();
    }

   private:
    std::unique_ptr<AppendableFile> file_;
    const std::chrono::microseconds latency_;
  };

  const std::chrono::microseconds latency_;
};

}  // namespace pstorm::storage

#endif  // PSTORM_TESTS_SYNC_LATENCY_ENV_H_

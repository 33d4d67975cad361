#ifndef PSTORM_STORAGE_ENV_H_
#define PSTORM_STORAGE_ENV_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace pstorm::storage {

/// An open file that only grows: the write-ahead log's handle. Append hands
/// bytes to the OS, where they survive a process crash; only Sync makes
/// them survive a power loss.
class AppendableFile {
 public:
  virtual ~AppendableFile() = default;
  /// Adds `data` at the end of the file. NOT atomic: a crash mid-append
  /// may leave a torn suffix, which is why the WAL frames and checksums
  /// each record.
  virtual Status Append(std::string_view data) = 0;
  /// Makes every byte appended so far durable (fdatasync on PosixEnv).
  virtual Status Sync() = 0;
};

/// Filesystem abstraction for the storage engine. Tables are small (profile
/// payloads are a few hundred bytes each, thesis §5), so whole-file
/// read/write is the unit of IO. The one streaming handle is
/// AppendableFile, which the write-ahead log uses to add and sync records
/// without rewriting the log.
class Env {
 public:
  virtual ~Env() = default;

  virtual Status CreateDir(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) const = 0;
  /// Atomicity contract: after WriteFile returns OK the file holds exactly
  /// `data`, durably, and a crash at any point leaves either the old
  /// contents or the new — never a half-written mix. (PosixEnv implements
  /// this as write to `path.tmp` + fsync + rename + directory fsync.)
  virtual Status WriteFile(const std::string& path,
                           const std::string& data) = 0;
  /// Opens `path` for appending, creating it empty if absent. The handle
  /// keeps writing to the file it opened, as a POSIX fd does: once `path`
  /// is replaced (WriteFile, a rename onto it) or deleted, appends through
  /// an older handle no longer reach `path`, so reopen it.
  virtual Result<std::unique_ptr<AppendableFile>> NewAppendableFile(
      const std::string& path) = 0;
  virtual Result<std::string> ReadFile(const std::string& path) const = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  /// Atomic-within-the-env rename; replaces the target if it exists.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  /// Names (not paths) of files directly inside `dir`, sorted.
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& dir) const = 0;
};

/// In-memory Env. The default for tests and for the profile-store use case,
/// where the entire corpus of profiles is tiny and persistence is optional.
/// Everything is durable the moment it is written, so Sync does nothing.
class InMemoryEnv final : public Env {
 public:
  Status CreateDir(const std::string& path) override;
  bool FileExists(const std::string& path) const override;
  Status WriteFile(const std::string& path, const std::string& data) override;
  Result<std::unique_ptr<AppendableFile>> NewAppendableFile(
      const std::string& path) override;
  Result<std::string> ReadFile(const std::string& path) const override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Result<std::vector<std::string>> ListDir(
      const std::string& dir) const override;

 private:
  class AppendHandle;

  mutable std::mutex mu_;
  /// Path -> contents. A WriteFile installs new contents, so, like a POSIX
  /// inode, the old contents live on only in append handles opened before.
  std::map<std::string, std::shared_ptr<std::string>> files_;
};

/// POSIX filesystem Env for on-disk stores. Every rename it performs, and
/// the creation of a file for appending, is followed by an fsync of the
/// parent directory, so a file's name survives a power loss with it.
class PosixEnv final : public Env {
 public:
  Status CreateDir(const std::string& path) override;
  bool FileExists(const std::string& path) const override;
  Status WriteFile(const std::string& path, const std::string& data) override;
  Result<std::unique_ptr<AppendableFile>> NewAppendableFile(
      const std::string& path) override;
  Result<std::string> ReadFile(const std::string& path) const override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Result<std::vector<std::string>> ListDir(
      const std::string& dir) const override;
};

/// Forwards every call to `target`, which must outlive it: the base of
/// test and benchmark envs that change one behaviour.
class EnvWrapper : public Env {
 public:
  explicit EnvWrapper(Env* target) : target_(target) {}

  Status CreateDir(const std::string& path) override {
    return target_->CreateDir(path);
  }
  bool FileExists(const std::string& path) const override {
    return target_->FileExists(path);
  }
  Status WriteFile(const std::string& path, const std::string& data) override {
    return target_->WriteFile(path, data);
  }
  Result<std::unique_ptr<AppendableFile>> NewAppendableFile(
      const std::string& path) override {
    return target_->NewAppendableFile(path);
  }
  Result<std::string> ReadFile(const std::string& path) const override {
    return target_->ReadFile(path);
  }
  Status DeleteFile(const std::string& path) override {
    return target_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return target_->RenameFile(from, to);
  }
  Result<std::vector<std::string>> ListDir(
      const std::string& dir) const override {
    return target_->ListDir(dir);
  }

 protected:
  Env* target() const { return target_; }

 private:
  Env* target_;
};

/// Decorates any Env with deterministic, seedable failure schedules — the
/// crash-safety test harness. Four independent fault modes:
///
///  * CrashAtMutation(n): the Nth mutating operation (1-based; WriteFile,
///    DeleteFile, RenameFile, and an append handle's Append and Sync)
///    "crashes the process": a WriteFile leaves the old contents intact
///    plus a torn `.tmp` staging file (per the Env::WriteFile atomicity
///    contract), an append lands a torn suffix on the real file, a sync,
///    delete or rename does nothing, and that operation plus every later
///    mutation returns IoError. Reads keep working so the harness can
///    reopen the store afterwards, which models a restart on the
///    surviving bytes.
///  * DropUnsyncedData(): turns that crash into a power loss. Every file
///    loses the bytes appended to it since its last Sync; files written by
///    WriteFile are durable by contract and survive whole.
///  * SetErrorProbability(p, seed): each mutation independently fails with
///    probability p, applying nothing. Deterministic for a fixed seed.
///  * FlipByte(path, offset): bit-rot injection on the wrapped env.
///
/// Thread-safe: the fault schedule advances under an internal mutex, so
/// each mutation — from whichever thread — consumes exactly one sequence
/// number and the decision for the Nth mutation is deterministic. (Which
/// thread's operation is "the Nth" depends on arrival order, as it would
/// in a real crash.) Schedule setters are meant for quiesced moments
/// between test phases.
class FaultInjectionEnv final : public EnvWrapper {
 public:
  /// `target` must outlive this env.
  explicit FaultInjectionEnv(Env* target) : EnvWrapper(target) {}

  /// Schedules a simulated crash at the `n`th mutating operation from now
  /// (1-based). Resets the mutation counter.
  void CrashAtMutation(uint64_t n);
  /// Every mutation fails (nothing applied) with probability `p`.
  void SetErrorProbability(double p, uint64_t seed);
  /// Clears every fault and the crashed state — the "reboot" before a
  /// reopen. Unsynced appends stay unsynced: the page cache outlives a
  /// process.
  void ClearFaults();
  /// Power loss: truncates every file to the bytes its last Sync (or the
  /// WriteFile that created it) made durable. Call after the crash and
  /// before the reboot; handles opened earlier must not be used again.
  void DropUnsyncedData();

  /// Mutating operations attempted since the last CrashAtMutation /
  /// ClearFaults (counting the crashed one).
  uint64_t mutation_count() const {
    return mutations_.load(std::memory_order_relaxed);
  }
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  /// XORs the byte at `offset` of `path` with 0xff, bypassing fault
  /// schedules.
  Status FlipByte(const std::string& path, size_t offset);

  // Directory creation and reads pass straight through: they are not part
  // of the mutation schedule.
  Status WriteFile(const std::string& path, const std::string& data) override;
  /// Opening is not a mutation of the schedule, but fails once crashed.
  Result<std::unique_ptr<AppendableFile>> NewAppendableFile(
      const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;

 private:
  class AppendHandle;

  /// Advances the fault schedule for one mutation (one atomic step under
  /// fault_mu_: sequence-number increment + rng draw). Returns OK when the
  /// operation should proceed normally; IoError when it must fail. Sets
  /// `*torn` when the operation should apply a partial effect first.
  Status CheckMutation(bool* torn);
  /// Records `bytes` appended to `path` and not yet synced.
  void AddUnsynced(const std::string& path, size_t bytes);

  /// Guards the schedule (crash_at_, error_probability_, rng_) and
  /// unsynced_, and makes each CheckMutation an indivisible step. The
  /// counters are additionally atomic so the accessors stay lock-free.
  mutable std::mutex fault_mu_;
  std::atomic<uint64_t> mutations_{0};
  uint64_t crash_at_ = 0;  // 0 = no crash scheduled.
  std::atomic<bool> crashed_{false};
  double error_probability_ = 0;
  Rng rng_{0};
  /// Path -> bytes at its end appended since its last sync. WriteFile,
  /// DeleteFile and RenameFile keep it in step with the files' names.
  std::map<std::string, size_t> unsynced_;
};

/// Joins `dir` and `name` with exactly one separator.
std::string JoinPath(const std::string& dir, const std::string& name);

namespace internal {

/// Injectable fd syscalls for testing the PosixEnv write loop against
/// short writes and signal interruptions, which a real filesystem will not
/// produce on demand. Null members fall back to the real ::write/::fsync/
/// ::close.
struct FdOps {
  std::function<ssize_t(int fd, const void* buf, size_t count)> write_fn;
  std::function<int(int fd)> fsync_fn;
  std::function<int(int fd)> close_fn;
};

/// Writes all of `data` to `fd`, retrying short writes and EINTR (a
/// signal-interrupted write is a retry, not an IoError). `name` labels
/// error messages. The append handle's write path.
Status WriteFd(int fd, std::string_view data, const std::string& name,
               const FdOps& ops = {});

/// WriteFd, then fsync (retried on EINTR), then close. The fd is closed
/// exactly once on every path, success or error, and the first error wins
/// (a failed write still closes, but reports the write's error, not the
/// close's).
Status WriteSyncCloseFd(int fd, std::string_view data, const std::string& name,
                        const FdOps& ops = {});

}  // namespace internal

}  // namespace pstorm::storage

#endif  // PSTORM_STORAGE_ENV_H_

#include "storage/env.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace pstorm::storage {

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

// ---------------------------------------------------------------- InMemory

/// Appends to the contents the path held when the handle was opened.
class InMemoryEnv::AppendHandle final : public AppendableFile {
 public:
  AppendHandle(std::mutex* mu, std::shared_ptr<std::string> contents)
      : mu_(mu), contents_(std::move(contents)) {}

  Status Append(std::string_view data) override {
    std::lock_guard<std::mutex> lock(*mu_);
    contents_->append(data);
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }

 private:
  std::mutex* mu_;
  std::shared_ptr<std::string> contents_;
};

Status InMemoryEnv::CreateDir(const std::string&) { return Status::OK(); }

bool InMemoryEnv::FileExists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Status InMemoryEnv::WriteFile(const std::string& path,
                              const std::string& data) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] = std::make_shared<std::string>(data);
  return Status::OK();
}

Result<std::unique_ptr<AppendableFile>> InMemoryEnv::NewAppendableFile(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<std::string>& contents = files_[path];
  if (contents == nullptr) contents = std::make_shared<std::string>();
  return std::unique_ptr<AppendableFile>(new AppendHandle(&mu_, contents));
}

Result<std::string> InMemoryEnv::ReadFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return *it->second;
}

Status InMemoryEnv::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::OK();
}

Status InMemoryEnv::RenameFile(const std::string& from,
                               const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no such file: " + from);
  std::shared_ptr<std::string> contents = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(contents);
  return Status::OK();
}

Result<std::vector<std::string>> InMemoryEnv::ListDir(
    const std::string& dir) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string prefix = dir.empty() || dir.back() == '/' ? dir
                                                              : dir + "/";
  std::vector<std::string> names;
  for (const auto& [path, _] : files_) {
    if (!StartsWith(path, prefix)) continue;
    const std::string rest = path.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.push_back(rest);
  }
  return names;
}

// ------------------------------------------------------------------- Posix

Status PosixEnv::CreateDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) return Status::IoError("create_directories " + path + ": " +
                                 ec.message());
  return Status::OK();
}

bool PosixEnv::FileExists(const std::string& path) const {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

namespace {

/// fsync (or fdatasync, which skips metadata such as mtime), retried on
/// EINTR.
Status SyncFd(int fd, bool data_only, const std::string& name,
              const internal::FdOps& ops = {}) {
  const auto sync = [&] {
    if (ops.fsync_fn) return ops.fsync_fn(fd);
    return data_only ? ::fdatasync(fd) : ::fsync(fd);
  };
  int rc = sync();
  while (rc != 0 && errno == EINTR) rc = sync();
  if (rc != 0) {
    return Status::IoError((data_only ? "fdatasync: " : "fsync: ") + name);
  }
  return Status::OK();
}

/// Makes the directory entries of `path`'s parent durable: a created or
/// renamed file's name survives a power loss only once this returns.
Status SyncParentDir(const std::string& path) {
  // No literal is assigned to the string: GCC 12 raises a false -Wrestrict
  // on that at -O3.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir =
      parent.empty() ? std::string(1, '.') : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("open directory: " + dir);
  const Status s = SyncFd(fd, /*data_only=*/false, dir);
  ::close(fd);
  return s;
}

class PosixAppendableFile final : public AppendableFile {
 public:
  PosixAppendableFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}
  ~PosixAppendableFile() override { ::close(fd_); }

  Status Append(std::string_view data) override {
    return internal::WriteFd(fd_, data, path_);
  }
  Status Sync() override { return SyncFd(fd_, /*data_only=*/true, path_); }

 private:
  std::string path_;
  int fd_;
};

}  // namespace

namespace internal {

Status WriteFd(int fd, std::string_view data, const std::string& name,
               const FdOps& ops) {
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ops.write_fn ? ops.write_fn(fd, p, left)
                                   : ::write(fd, p, left);
    if (n < 0) {
      // A signal landing mid-write interrupts the syscall without writing
      // anything; that is a retry, never an IoError.
      if (errno == EINTR) continue;
      return Status::IoError("write: " + name);
    }
    // n == 0 on a regular file would loop forever; treat it as the short
    // write it is and retry — POSIX only returns 0 for count == 0, which
    // the loop condition already excludes.
    p += n;
    left -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteSyncCloseFd(int fd, std::string_view data, const std::string& name,
                        const FdOps& ops) {
  Status status = WriteFd(fd, data, name, ops);
  if (status.ok()) status = SyncFd(fd, /*data_only=*/false, name, ops);
  // Exactly one close on every path. POSIX leaves the fd state unspecified
  // after EINTR from close, so it is not retried (a retry could close an
  // unrelated fd another thread just opened with the same number).
  const int close_rc = ops.close_fn ? ops.close_fn(fd) : ::close(fd);
  if (status.ok() && close_rc != 0) {
    status = Status::IoError("close: " + name);
  }
  return status;
}

}  // namespace internal

Status PosixEnv::WriteFile(const std::string& path, const std::string& data) {
  // Honour the Env::WriteFile atomicity contract: stage the bytes in a
  // sibling temp file, fsync them, then rename over the target so a crash
  // never exposes a half-written file.
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError("open for write: " + tmp);
  PSTORM_RETURN_IF_ERROR(internal::WriteSyncCloseFd(fd, data, tmp));
  return RenameFile(tmp, path);
}

Result<std::unique_ptr<AppendableFile>> PosixEnv::NewAppendableFile(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0 && errno == ENOENT) {
    fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                0644);
    if (fd >= 0) {
      if (Status s = SyncParentDir(path); !s.ok()) {
        ::close(fd);
        return s;
      }
    }
  }
  if (fd < 0) return Status::IoError("open for append: " + path);
  return std::unique_ptr<AppendableFile>(new PosixAppendableFile(path, fd));
}

Result<std::string> PosixEnv::ReadFile(const std::string& path) const {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no such file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return Status::IoError("read: " + path);
  return buf.str();
}

Status PosixEnv::DeleteFile(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::remove(path, ec)) {
    return Status::NotFound("no such file: " + path);
  }
  if (ec) return Status::IoError("remove " + path + ": " + ec.message());
  return Status::OK();
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  if (ec) return Status::IoError("rename " + from + " -> " + to + ": " +
                                 ec.message());
  PSTORM_RETURN_IF_ERROR(SyncParentDir(to));
  if (std::filesystem::path(from).parent_path() !=
      std::filesystem::path(to).parent_path()) {
    return SyncParentDir(from);
  }
  return Status::OK();
}

Result<std::vector<std::string>> PosixEnv::ListDir(
    const std::string& dir) const {
  std::error_code ec;
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    names.push_back(entry.path().filename().string());
  }
  if (ec) return Status::IoError("listdir " + dir + ": " + ec.message());
  std::sort(names.begin(), names.end());
  return names;
}

// --------------------------------------------------------- FaultInjection

/// Runs each Append and Sync through the fault schedule and tracks the
/// bytes a power loss would take.
class FaultInjectionEnv::AppendHandle final : public AppendableFile {
 public:
  AppendHandle(FaultInjectionEnv* env, std::string path,
               std::unique_ptr<AppendableFile> file)
      : env_(env), path_(std::move(path)), file_(std::move(file)) {}

  Status Append(std::string_view data) override {
    bool torn;
    Status fault = env_->CheckMutation(&torn);
    // A torn append lands the first half of the bytes.
    if (!fault.ok() && torn) data = data.substr(0, data.size() / 2);
    if (fault.ok() || torn) {
      const Status s = file_->Append(data);
      if (s.ok()) env_->AddUnsynced(path_, data.size());
      if (fault.ok()) fault = s;
    }
    return fault;
  }

  Status Sync() override {
    bool torn;
    PSTORM_RETURN_IF_ERROR(env_->CheckMutation(&torn));
    PSTORM_RETURN_IF_ERROR(file_->Sync());
    std::lock_guard<std::mutex> lock(env_->fault_mu_);
    env_->unsynced_.erase(path_);
    return Status::OK();
  }

 private:
  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<AppendableFile> file_;  // The target env's handle.
};

void FaultInjectionEnv::CrashAtMutation(uint64_t n) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  crash_at_ = n;
  mutations_ = 0;
  crashed_ = false;
}

void FaultInjectionEnv::SetErrorProbability(double p, uint64_t seed) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  error_probability_ = p;
  rng_ = Rng(seed);
}

void FaultInjectionEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  crash_at_ = 0;
  mutations_ = 0;
  crashed_ = false;
  error_probability_ = 0;
}

void FaultInjectionEnv::DropUnsyncedData() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  for (const auto& [path, bytes] : unsynced_) {
    Result<std::string> data = target()->ReadFile(path);
    if (!data.ok()) continue;
    data->resize(data->size() - std::min(bytes, data->size()));
    (void)target()->WriteFile(path, data.value());
  }
  unsynced_.clear();
}

void FaultInjectionEnv::AddUnsynced(const std::string& path, size_t bytes) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  unsynced_[path] += bytes;
}

Status FaultInjectionEnv::CheckMutation(bool* torn) {
  *torn = false;
  std::lock_guard<std::mutex> lock(fault_mu_);
  const uint64_t n = mutations_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IoError("simulated crash: process is down");
  }
  if (crash_at_ != 0 && n >= crash_at_) {
    crashed_.store(true, std::memory_order_relaxed);
    *torn = true;  // The crashing write lands partially.
    return Status::IoError("simulated crash at mutation " +
                           std::to_string(n));
  }
  if (error_probability_ > 0 && rng_.Bernoulli(error_probability_)) {
    return Status::IoError("injected IO error at mutation " +
                           std::to_string(n));
  }
  return Status::OK();
}

Status FaultInjectionEnv::FlipByte(const std::string& path, size_t offset) {
  PSTORM_ASSIGN_OR_RETURN(std::string data, target()->ReadFile(path));
  if (offset >= data.size()) {
    return Status::InvalidArgument("flip offset past end of " + path);
  }
  data[offset] = static_cast<char>(data[offset] ^ 0xff);
  return target()->WriteFile(path, data);
}

Status FaultInjectionEnv::WriteFile(const std::string& path,
                                    const std::string& data) {
  bool torn;
  const Status fault = CheckMutation(&torn);
  if (fault.ok()) {
    PSTORM_RETURN_IF_ERROR(target()->WriteFile(path, data));
    std::lock_guard<std::mutex> lock(fault_mu_);
    unsynced_.erase(path);  // The new contents are durable by contract.
    return Status::OK();
  }
  if (torn) {
    // Model the PosixEnv staging sequence: the crash hit before the rename,
    // so the target keeps its old contents and half the bytes sit in a torn
    // staging file for the next open's orphan sweep to find.
    (void)target()->WriteFile(path + ".tmp", data.substr(0, data.size() / 2));
  }
  return fault;
}

Result<std::unique_ptr<AppendableFile>> FaultInjectionEnv::NewAppendableFile(
    const std::string& path) {
  if (crashed()) return Status::IoError("simulated crash: process is down");
  PSTORM_ASSIGN_OR_RETURN(std::unique_ptr<AppendableFile> file,
                          target()->NewAppendableFile(path));
  return std::unique_ptr<AppendableFile>(
      new AppendHandle(this, path, std::move(file)));
}

Status FaultInjectionEnv::DeleteFile(const std::string& path) {
  bool torn;
  PSTORM_RETURN_IF_ERROR(CheckMutation(&torn));
  PSTORM_RETURN_IF_ERROR(target()->DeleteFile(path));
  std::lock_guard<std::mutex> lock(fault_mu_);
  unsynced_.erase(path);
  return Status::OK();
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  bool torn;
  PSTORM_RETURN_IF_ERROR(CheckMutation(&torn));
  PSTORM_RETURN_IF_ERROR(target()->RenameFile(from, to));
  std::lock_guard<std::mutex> lock(fault_mu_);
  unsynced_.erase(to);
  if (auto it = unsynced_.find(from); it != unsynced_.end()) {
    unsynced_[to] = it->second;
    unsynced_.erase(it);
  }
  return Status::OK();
}

}  // namespace pstorm::storage

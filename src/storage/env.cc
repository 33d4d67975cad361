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

Status InMemoryEnv::CreateDir(const std::string&) { return Status::OK(); }

bool InMemoryEnv::FileExists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Status InMemoryEnv::WriteFile(const std::string& path,
                              const std::string& data) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] = data;
  return Status::OK();
}

Status InMemoryEnv::AppendFile(const std::string& path,
                               const std::string& data) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] += data;
  return Status::OK();
}

Result<std::string> InMemoryEnv::ReadFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second;
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
  files_[to] = std::move(it->second);
  files_.erase(it);
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

namespace internal {

Status WriteSyncCloseFd(int fd, std::string_view data, const std::string& name,
                        const FdOps& ops) {
  Status status;
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ops.write_fn ? ops.write_fn(fd, p, left)
                                   : ::write(fd, p, left);
    if (n < 0) {
      // A signal landing mid-write interrupts the syscall without writing
      // anything; that is a retry, never an IoError.
      if (errno == EINTR) continue;
      status = Status::IoError("write: " + name);
      break;
    }
    // n == 0 on a regular file would loop forever; treat it as the short
    // write it is and retry — POSIX only returns 0 for count == 0, which
    // the loop condition already excludes.
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (status.ok()) {
    int rc = ops.fsync_fn ? ops.fsync_fn(fd) : ::fsync(fd);
    while (rc != 0 && errno == EINTR) {
      rc = ops.fsync_fn ? ops.fsync_fn(fd) : ::fsync(fd);
    }
    if (rc != 0) status = Status::IoError("fsync: " + name);
  }
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
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError("open for write: " + tmp);
  PSTORM_RETURN_IF_ERROR(internal::WriteSyncCloseFd(fd, data, tmp));
  return RenameFile(tmp, path);
}

Status PosixEnv::AppendFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) return Status::IoError("open for append: " + path);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) return Status::IoError("append: " + path);
  return Status::OK();
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
  PSTORM_ASSIGN_OR_RETURN(std::string data, target_->ReadFile(path));
  if (offset >= data.size()) {
    return Status::InvalidArgument("flip offset past end of " + path);
  }
  data[offset] = static_cast<char>(data[offset] ^ 0xff);
  return target_->WriteFile(path, data);
}

Status FaultInjectionEnv::CreateDir(const std::string& path) {
  // Directory creation is metadata-only in both backing envs; not part of
  // the mutation schedule.
  return target_->CreateDir(path);
}

bool FaultInjectionEnv::FileExists(const std::string& path) const {
  return target_->FileExists(path);
}

Status FaultInjectionEnv::WriteFile(const std::string& path,
                                    const std::string& data) {
  bool torn;
  const Status fault = CheckMutation(&torn);
  if (fault.ok()) return target_->WriteFile(path, data);
  if (torn) {
    // Model the PosixEnv staging sequence: the crash hit before the rename,
    // so the target keeps its old contents and half the bytes sit in a torn
    // staging file for the next open's orphan sweep to find.
    (void)target_->WriteFile(path + ".tmp", data.substr(0, data.size() / 2));
  }
  return fault;
}

Status FaultInjectionEnv::AppendFile(const std::string& path,
                                     const std::string& data) {
  bool torn;
  const Status fault = CheckMutation(&torn);
  if (fault.ok()) return target_->AppendFile(path, data);
  if (torn) {
    (void)target_->AppendFile(path, data.substr(0, data.size() / 2));
  }
  return fault;
}

Result<std::string> FaultInjectionEnv::ReadFile(
    const std::string& path) const {
  return target_->ReadFile(path);
}

Status FaultInjectionEnv::DeleteFile(const std::string& path) {
  bool torn;
  PSTORM_RETURN_IF_ERROR(CheckMutation(&torn));
  return target_->DeleteFile(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  bool torn;
  PSTORM_RETURN_IF_ERROR(CheckMutation(&torn));
  return target_->RenameFile(from, to);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& dir) const {
  return target_->ListDir(dir);
}

}  // namespace pstorm::storage

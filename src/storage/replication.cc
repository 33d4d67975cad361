#include "storage/replication.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace pstorm::storage {

namespace {

/// Largest number of records one ship round moves (bounds memory and the
/// follower's per-batch apply latency).
constexpr size_t kMaxBatchRecords = 1024;
/// Transient-IoError retry policy of the fetch and checkpoint loops: up to
/// kMaxRetries retries with jittered exponential backoff from
/// kRetryBackoffMicros, capped at kRetryBackoffMaxMicros.
constexpr int kMaxRetries = 5;
constexpr uint64_t kRetryBackoffMicros = 200;
constexpr uint64_t kRetryBackoffMaxMicros = 50000;
constexpr uint64_t kRetrySeed = 0;
/// How many recently applied (sequence, checksum) pairs the applier keeps
/// for divergence detection on overlapping re-ships.
constexpr size_t kDivergenceWindow = 1024;
/// Checkpoint bootstraps one CatchUp may run before giving up.
constexpr int kMaxBootstrapsPerCatchUp = 4;

obs::Counter& ShippedBatches() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_repl_shipped_batches_total");
  return c;
}
obs::Counter& ShippedRecords() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_repl_shipped_records_total");
  return c;
}
obs::Counter& ShippedBytes() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_repl_shipped_bytes_total");
  return c;
}
obs::Counter& CheckpointShips() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_repl_checkpoint_ships_total");
  return c;
}
obs::Counter& ShipRetries() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_repl_ship_retries_total");
  return c;
}
obs::Counter& ApplierFenceRejections() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_repl_fence_rejections_total");
  return c;
}
obs::Counter& Divergences() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_repl_divergence_total");
  return c;
}
/// Follower lag in records, sampled after every ship round.
obs::Histogram& LagRecordsHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "pstorm_repl_lag_records");
  return h;
}

/// Runs `attempt` until it returns OK or a non-IoError status (fencing,
/// corruption: the caller's decision), retrying a transient IoError up to
/// kMaxRetries times. Each retry counts in `*retries` and the global
/// metric, then sleeps a jittered capped exponential backoff: half the
/// window fixed, half random.
template <typename Counter, typename Attempt>
auto RetryIoErrors(const char* what, Rng* rng, Counter* retries,
                   Attempt attempt) -> decltype(attempt()) {
  auto result = attempt();
  uint64_t backoff = kRetryBackoffMicros;
  for (int retry = 1; !result.ok() && result.status().IsIoError() &&
                      retry <= kMaxRetries;
       ++retry) {
    ++*retries;
    ShipRetries().Increment();
    const uint64_t window = backoff;
    backoff = std::min(backoff * 2, kRetryBackoffMaxMicros);
    const uint64_t sleep_micros = window / 2 + rng->NextUint64(window / 2 + 1);
    PSTORM_LOG(Warning) << "replication: " << what << " failed ("
                        << result.status().ToString() << "); retry " << retry
                        << "/" << kMaxRetries << " in " << sleep_micros
                        << "us";
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_micros));
    result = attempt();
  }
  return result;
}

}  // namespace

// --- WalApplier -----------------------------------------------------------

WalApplier::WalApplier(Db* follower) : follower_(follower) {
  PSTORM_CHECK(follower_ != nullptr);
}

uint64_t WalApplier::applied_sequence() const {
  return follower_->last_sequence();
}

uint64_t WalApplier::overlap_records_skipped() const {
  return overlap_records_skipped_.load(std::memory_order_relaxed);
}

uint64_t WalApplier::divergences() const {
  return divergences_.load(std::memory_order_relaxed);
}

uint64_t WalApplier::fence_rejections() const {
  return fence_rejections_.load(std::memory_order_relaxed);
}

Status WalApplier::Apply(uint64_t primary_epoch, const WalSegment& segment) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t applied = follower_->last_sequence();

  if (!segment.empty() && segment.first_sequence() > applied + 1) {
    return Status::InvalidArgument(
        "replication gap: shipped batch starts at " +
        std::to_string(segment.first_sequence()) + " but follower is at " +
        std::to_string(applied));
  }

  // An overlapping prefix means a retried/raced ship of already-applied
  // sequences. Legal — but only if it is byte-for-byte the same history:
  // the frame checksum doubles as the identity of record `seq`, so a
  // mismatch is a fork (two primaries wrote different record N), which must
  // surface, never be papered over.
  for (const WalRecordRef& ref : segment.records) {
    if (ref.sequence > applied) break;
    if (recent_.empty() || ref.sequence < recent_.front().sequence) {
      // Older than the divergence ring remembers; nothing to compare
      // against. Skip it (the follower already holds *a* record with this
      // sequence; divergence that old is caught by the crash harness's
      // full-content comparison instead).
      overlap_records_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const WalRecordRef& mine =
        recent_[ref.sequence - recent_.front().sequence];
    if (mine.checksum != ref.checksum) {
      divergences_.fetch_add(1, std::memory_order_relaxed);
      Divergences().Increment();
      return Status::Corruption(
          "replication fork: sequence " + std::to_string(ref.sequence) +
          " re-shipped with a different checksum");
    }
    overlap_records_skipped_.fetch_add(1, std::memory_order_relaxed);
  }

  const WalSegment fresh = SliceWalSegment(segment, applied + 1);
  const Status s = follower_->ApplyReplicated(primary_epoch, fresh);
  if (!s.ok()) {
    if (s.code() == StatusCode::kFailedPrecondition) {
      fence_rejections_.fetch_add(1, std::memory_order_relaxed);
      ApplierFenceRejections().Increment();
    }
    return s;
  }
  for (const WalRecordRef& ref : fresh.records) {
    recent_.push_back(WalRecordRef{ref.sequence, ref.checksum, 0, 0});
    if (recent_.size() > kDivergenceWindow) recent_.pop_front();
  }
  return Status::OK();
}

// --- WalShipper -----------------------------------------------------------

WalShipper::WalShipper(Db* primary, WalApplier* applier)
    : primary_(primary), applier_(applier), rng_(kRetrySeed) {
  PSTORM_CHECK(primary_ != nullptr);
  PSTORM_CHECK(applier_ != nullptr);
}

Result<WalShipper::ShipOutcome> WalShipper::ShipOnce() {
  ship_rounds_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t from_sequence = applier_->applied_sequence() + 1;
  PSTORM_ASSIGN_OR_RETURN(
      Db::ShipBatch batch,
      RetryIoErrors("fetch", &rng_, &retries_, [&] {
        return primary_->FetchWalSince(from_sequence);
      }));
  ShipOutcome out;
  if (batch.need_checkpoint) {
    out.need_checkpoint = true;
    const uint64_t primary_last = primary_->last_sequence();
    const uint64_t applied = applier_->applied_sequence();
    out.lag = primary_last > applied ? primary_last - applied : 0;
    return out;
  }
  WalSegment segment = std::move(batch.segment);
  if (segment.records.size() > kMaxBatchRecords) {
    const WalRecordRef& cut = segment.records[kMaxBatchRecords];
    segment.raw.resize(cut.offset);
    segment.records.resize(kMaxBatchRecords);
  }
  // Apply even when empty: an empty round still forwards the primary's
  // epoch (heartbeat fencing keeps an idle follower's fence fresh).
  PSTORM_RETURN_IF_ERROR(applier_->Apply(batch.epoch, segment));
  if (!segment.empty()) {
    shipped_batches_.fetch_add(1, std::memory_order_relaxed);
    shipped_records_.fetch_add(segment.records.size(),
                               std::memory_order_relaxed);
    shipped_bytes_.fetch_add(segment.raw.size(), std::memory_order_relaxed);
    ShippedBatches().Increment();
    ShippedRecords().Add(segment.records.size());
    ShippedBytes().Add(segment.raw.size());
    out.shipped_records = segment.records.size();
  }
  const uint64_t primary_last = primary_->last_sequence();
  const uint64_t applied = applier_->applied_sequence();
  out.lag = primary_last > applied ? primary_last - applied : 0;
  LagRecordsHist().Record(out.lag);
  return out;
}

Result<WalShipper::ShipOutcome> WalShipper::CatchUp() {
  while (true) {
    PSTORM_ASSIGN_OR_RETURN(ShipOutcome out, ShipOnce());
    if (out.need_checkpoint) return out;
    if (out.lag == 0) return out;
    if (out.shipped_records == 0) return out;  // No more progress possible.
  }
}

// --- ReplicaSession -------------------------------------------------------

ReplicaSession::ReplicaSession(Db* primary, Env* follower_env,
                               std::string follower_path,
                               DbOptions follower_options)
    : primary_(primary),
      follower_env_(follower_env),
      follower_path_(std::move(follower_path)),
      follower_options_(std::move(follower_options)) {}

Result<std::unique_ptr<ReplicaSession>> ReplicaSession::Open(
    Db* primary, Env* follower_env, std::string follower_path,
    DbOptions follower_options) {
  PSTORM_CHECK(primary != nullptr);
  PSTORM_CHECK(follower_env != nullptr);
  // The whole point of a warm standby is taking writes only from the
  // primary's log.
  follower_options.read_only_replica = true;
  auto session = std::unique_ptr<ReplicaSession>(
      new ReplicaSession(primary, follower_env, std::move(follower_path),
                         std::move(follower_options)));
  std::lock_guard<std::mutex> lock(session->session_mu_);
  Result<std::unique_ptr<Db>> follower =
      Db::Open(follower_env, session->follower_path_,
               session->follower_options_);
  if (follower.ok()) {
    session->AttachLocked(std::move(follower).value());
  } else {
    // E.g. a corrupt manifest after a crashed install: rebuild the
    // follower from a fresh checkpoint instead of failing the session.
    PSTORM_LOG(Warning) << "replica session: follower open failed ("
                        << follower.status().ToString()
                        << "); bootstrapping from checkpoint";
    PSTORM_RETURN_IF_ERROR(session->BootstrapLocked());
  }
  return session;
}

void ReplicaSession::AttachLocked(std::unique_ptr<Db> follower) {
  follower_ = std::move(follower);
  applier_ = std::make_unique<WalApplier>(follower_.get());
  shipper_ = std::make_unique<WalShipper>(primary_, applier_.get());
}

Status ReplicaSession::BootstrapLocked() {
  Rng backoff_rng(kRetrySeed + 1);
  PSTORM_ASSIGN_OR_RETURN(
      DbCheckpoint checkpoint,
      RetryIoErrors("checkpoint", &backoff_rng, &checkpoint_retry_count_,
                    [&] { return primary_->Checkpoint(); }));

  // Close before install: InstallCheckpoint rewrites the directory under
  // the Db's feet otherwise. Fold the closed components' counters into the
  // session accumulators first, so stats() survives bootstraps.
  if (shipper_ != nullptr) {
    base_.ship_rounds += shipper_->ship_rounds();
    base_.shipped_batches += shipper_->shipped_batches();
    base_.shipped_records += shipper_->shipped_records();
    base_.shipped_bytes += shipper_->shipped_bytes();
    base_.retries += shipper_->retries();
  }
  if (applier_ != nullptr) {
    base_.overlap_records_skipped += applier_->overlap_records_skipped();
    base_.divergences += applier_->divergences();
    base_.fence_rejections += applier_->fence_rejections();
  }
  if (follower_ != nullptr) {
    const DbStats fs = follower_->stats();
    base_.applied_batches += fs.replicated_batches;
    base_.applied_records += fs.replicated_records;
  }
  shipper_.reset();
  applier_.reset();
  follower_.reset();
  // From here until the reopen succeeds the session has no follower; the
  // next round (PrepareRoundLocked) bootstraps again.
  PSTORM_RETURN_IF_ERROR(
      Db::InstallCheckpoint(follower_env_, follower_path_, checkpoint));
  PSTORM_ASSIGN_OR_RETURN(
      std::unique_ptr<Db> reopened,
      Db::Open(follower_env_, follower_path_, follower_options_));
  AttachLocked(std::move(reopened));
  ++checkpoint_ships_;
  CheckpointShips().Increment();
  PSTORM_LOG(Info) << "replica session: bootstrapped " << follower_path_
                   << " from checkpoint (epoch " << checkpoint.epoch
                   << ", flushed sequence " << checkpoint.flushed_sequence
                   << ")";
  return Status::OK();
}

Status ReplicaSession::PrepareRoundLocked() {
  if (promoted_) {
    return Status::FailedPrecondition("replica session already promoted");
  }
  if (follower_ == nullptr) return BootstrapLocked();
  return Status::OK();
}

Status ReplicaSession::TickOnce() {
  std::lock_guard<std::mutex> lock(session_mu_);
  PSTORM_RETURN_IF_ERROR(PrepareRoundLocked());
  Result<WalShipper::ShipOutcome> outcome = shipper_->ShipOnce();
  PSTORM_RETURN_IF_ERROR(outcome.status());
  if (outcome.value().need_checkpoint) {
    PSTORM_RETURN_IF_ERROR(BootstrapLocked());
    // Pick up whatever committed past the checkpoint's snapshot.
    Result<WalShipper::ShipOutcome> after = shipper_->ShipOnce();
    PSTORM_RETURN_IF_ERROR(after.status());
  }
  return Status::OK();
}

Status ReplicaSession::CatchUp() {
  std::lock_guard<std::mutex> lock(session_mu_);
  PSTORM_RETURN_IF_ERROR(PrepareRoundLocked());
  // A bootstrap can be demanded at most once per pass in practice (the
  // fresh checkpoint covers everything flushed); the bound is paranoia
  // against a primary flushing between rounds every time.
  for (int attempt = 0; attempt < kMaxBootstrapsPerCatchUp; ++attempt) {
    Result<WalShipper::ShipOutcome> outcome = shipper_->CatchUp();
    PSTORM_RETURN_IF_ERROR(outcome.status());
    if (!outcome.value().need_checkpoint) return Status::OK();
    PSTORM_RETURN_IF_ERROR(BootstrapLocked());
  }
  return Status::Internal(
      "replica catch-up kept requiring checkpoints; primary flushing "
      "faster than the follower can bootstrap");
}

Result<std::unique_ptr<Db>> ReplicaSession::Promote() {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (promoted_) {
    return Status::FailedPrecondition("replica session already promoted");
  }
  if (follower_ == nullptr) {
    // Rebuilding it needs the primary, which a failover must not count on.
    return Status::FailedPrecondition(
        "replica session has no follower: its last bootstrap failed");
  }
  PSTORM_RETURN_IF_ERROR(follower_->PromoteToPrimary());
  shipper_.reset();
  applier_.reset();
  promoted_ = true;
  PSTORM_LOG(Info) << "replica session: promoted " << follower_path_
                   << " to primary at epoch " << follower_->epoch();
  return std::move(follower_);
}

uint64_t ReplicaSession::lag() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (promoted_) return 0;
  const uint64_t primary_last = primary_->last_sequence();
  const uint64_t applied =
      follower_ != nullptr ? follower_->last_sequence() : 0;
  return primary_last > applied ? primary_last - applied : 0;
}

ReplicationStats ReplicaSession::stats() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  ReplicationStats out = base_;
  if (shipper_ != nullptr) {
    out.ship_rounds += shipper_->ship_rounds();
    out.shipped_batches += shipper_->shipped_batches();
    out.shipped_records += shipper_->shipped_records();
    out.shipped_bytes += shipper_->shipped_bytes();
    out.retries += shipper_->retries();
  }
  out.retries += checkpoint_retry_count_;
  if (applier_ != nullptr) {
    out.overlap_records_skipped += applier_->overlap_records_skipped();
    out.divergences += applier_->divergences();
    out.fence_rejections += applier_->fence_rejections();
  }
  if (follower_ != nullptr) {
    const DbStats fs = follower_->stats();
    out.applied_batches += fs.replicated_batches;
    out.applied_records += fs.replicated_records;
  }
  out.checkpoint_ships = checkpoint_ships_;
  return out;
}

}  // namespace pstorm::storage

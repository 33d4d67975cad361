#include "storage/replication.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace pstorm::storage {

namespace {

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

/// Jittered capped exponential backoff shared by the fetch and checkpoint
/// retry loops: half the window fixed, half random, never zero-delay when a
/// backoff is configured.
uint64_t NextBackoff(uint64_t* backoff, uint64_t max_micros, Rng* rng) {
  const uint64_t capped = std::min(*backoff, max_micros);
  *backoff = std::min(*backoff * 2, max_micros);
  return capped / 2 + rng->NextUint64(capped / 2 + 1);
}

}  // namespace

// --- WalApplier -----------------------------------------------------------

WalApplier::WalApplier(Db* follower, size_t divergence_window)
    : follower_(follower),
      divergence_window_(divergence_window == 0 ? 1 : divergence_window) {
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
    if (recent_.size() > divergence_window_) recent_.pop_front();
  }
  return Status::OK();
}

// --- WalShipper -----------------------------------------------------------

WalShipper::WalShipper(Db* primary, WalApplier* applier,
                       const ReplicationOptions& options, StopLatch* stop)
    : primary_(primary),
      applier_(applier),
      options_(options),
      stop_(stop != nullptr ? stop : &own_stop_),
      rng_(options.retry_seed) {
  PSTORM_CHECK(primary_ != nullptr);
  PSTORM_CHECK(applier_ != nullptr);
}

Result<Db::ShipBatch> WalShipper::FetchWithRetries(uint64_t from_sequence) {
  uint64_t backoff = options_.retry_backoff_micros;
  for (int attempt = 0;; ++attempt) {
    Result<Db::ShipBatch> batch = primary_->FetchWalSince(from_sequence);
    if (batch.ok() || attempt >= options_.max_retries ||
        !batch.status().IsIoError()) {
      // Only transient (IoError) failures are worth retrying; everything
      // else — fencing, corruption — is a decision for the caller.
      return batch;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    ShipRetries().Increment();
    const uint64_t sleep_micros = NextBackoff(
        &backoff, options_.retry_backoff_max_micros, &rng_);
    PSTORM_LOG(Warning) << "replication: fetch from sequence "
                        << from_sequence << " failed ("
                        << batch.status().ToString() << "); retry "
                        << (attempt + 1) << "/" << options_.max_retries
                        << " in " << sleep_micros << "us";
    if (stop_->WaitFor(sleep_micros)) {
      // Teardown raced the backoff: surface the transient error instead of
      // finishing the sleep (callers are shutting the replica down).
      return batch;
    }
  }
}

Result<WalShipper::ShipOutcome> WalShipper::ShipOnce() {
  ship_rounds_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t from_sequence = applier_->applied_sequence() + 1;
  PSTORM_ASSIGN_OR_RETURN(Db::ShipBatch batch,
                          FetchWithRetries(from_sequence));
  ShipOutcome out;
  if (batch.need_checkpoint) {
    out.need_checkpoint = true;
    const uint64_t primary_last = primary_->last_sequence();
    const uint64_t applied = applier_->applied_sequence();
    out.lag = primary_last > applied ? primary_last - applied : 0;
    return out;
  }
  WalSegment segment = std::move(batch.segment);
  if (segment.records.size() > options_.max_batch_records) {
    const WalRecordRef& cut = segment.records[options_.max_batch_records];
    segment.raw.resize(cut.offset);
    segment.records.resize(options_.max_batch_records);
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
    if (out.lag <= options_.max_lag_records) return out;
    if (out.shipped_records == 0) return out;  // No more progress possible.
  }
}

// --- ReplicaSession -------------------------------------------------------

ReplicaSession::ReplicaSession(Db* primary, Env* follower_env,
                               std::string follower_path, Options options)
    : primary_(primary),
      follower_env_(follower_env),
      follower_path_(std::move(follower_path)),
      options_(std::move(options)) {}

Result<std::unique_ptr<ReplicaSession>> ReplicaSession::Open(
    Db* primary, Env* follower_env, std::string follower_path,
    Options options) {
  PSTORM_CHECK(primary != nullptr);
  PSTORM_CHECK(follower_env != nullptr);
  // The whole point of a warm standby is taking writes only from the
  // primary's log.
  options.follower_db.read_only_replica = true;
  auto session = std::unique_ptr<ReplicaSession>(new ReplicaSession(
      primary, follower_env, std::move(follower_path), std::move(options)));
  std::lock_guard<std::mutex> lock(session->session_mu_);
  Result<std::unique_ptr<Db>> follower = Db::Open(
      follower_env, session->follower_path_, session->options_.follower_db);
  if (follower.ok()) {
    session->follower_ = std::move(follower).value();
    session->applier_ = std::make_unique<WalApplier>(
        session->follower_.get(),
        session->options_.replication.divergence_window);
    session->shipper_ = std::make_unique<WalShipper>(
        primary, session->applier_.get(), session->options_.replication,
        &session->stop_latch_);
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

ReplicaSession::~ReplicaSession() {
  StopTailing();
  std::lock_guard<std::mutex> lock(session_mu_);
  if (sync_enabled_) {
    (void)primary_->SetCommitListener(nullptr);
    sync_enabled_ = false;
  }
}

Status ReplicaSession::BootstrapLocked() {
  // Sync mode: detach the forwarder FIRST. SetCommitListener waits out any
  // in-flight batch (including its OnCommit into our applier), so after
  // this no commit can race the teardown below.
  if (sync_enabled_) {
    PSTORM_RETURN_IF_ERROR(primary_->SetCommitListener(nullptr));
  }

  // Fold the about-to-be-recreated components' counters into the session
  // accumulators so stats() survives bootstraps.
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

  Rng backoff_rng(options_.replication.retry_seed + 1);
  uint64_t backoff = options_.replication.retry_backoff_micros;
  Result<DbCheckpoint> checkpoint = primary_->Checkpoint();
  for (int attempt = 0;
       !checkpoint.ok() && checkpoint.status().IsIoError() &&
       attempt < options_.replication.max_retries;
       ++attempt) {
    ++checkpoint_retry_count_;
    ShipRetries().Increment();
    const uint64_t sleep_micros = NextBackoff(
        &backoff, options_.replication.retry_backoff_max_micros,
        &backoff_rng);
    PSTORM_LOG(Warning) << "replica session: checkpoint failed ("
                        << checkpoint.status().ToString() << "); retry "
                        << (attempt + 1) << "/"
                        << options_.replication.max_retries << " in "
                        << sleep_micros << "us";
    if (stop_latch_.WaitFor(sleep_micros)) break;  // Teardown in progress.
    checkpoint = primary_->Checkpoint();
  }
  if (!checkpoint.ok()) return checkpoint.status();

  // Close before install: InstallCheckpoint rewrites the directory under
  // the Db's feet otherwise.
  shipper_.reset();
  applier_.reset();
  follower_.reset();
  PSTORM_RETURN_IF_ERROR(Db::InstallCheckpoint(
      follower_env_, follower_path_, checkpoint.value()));
  Result<std::unique_ptr<Db>> reopened =
      Db::Open(follower_env_, follower_path_, options_.follower_db);
  if (!reopened.ok()) return reopened.status();
  follower_ = std::move(reopened).value();
  applier_ = std::make_unique<WalApplier>(
      follower_.get(), options_.replication.divergence_window);
  shipper_ = std::make_unique<WalShipper>(primary_, applier_.get(),
                                          options_.replication, &stop_latch_);
  ++checkpoint_ships_;
  CheckpointShips().Increment();
  PSTORM_LOG(Info) << "replica session: bootstrapped " << follower_path_
                   << " from checkpoint (epoch "
                   << checkpoint.value().epoch << ", flushed sequence "
                   << checkpoint.value().flushed_sequence << ")";

  if (sync_enabled_) {
    forwarder_ = std::make_unique<SyncForwarder>(applier_.get());
    PSTORM_RETURN_IF_ERROR(primary_->SetCommitListener(forwarder_.get()));
  }
  return Status::OK();
}

Status ReplicaSession::TickLocked() {
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

Status ReplicaSession::TickOnce() {
  std::lock_guard<std::mutex> lock(session_mu_);
  const Status s = TickLocked();
  last_tail_error_ = s;
  return s;
}

Status ReplicaSession::CatchUp() {
  std::lock_guard<std::mutex> lock(session_mu_);
  // A bootstrap can be demanded at most once per pass in practice (the
  // fresh checkpoint covers everything flushed); the bound is paranoia
  // against a primary flushing between rounds every time.
  for (int attempt = 0; attempt < 4; ++attempt) {
    Result<WalShipper::ShipOutcome> outcome = shipper_->CatchUp();
    PSTORM_RETURN_IF_ERROR(outcome.status());
    if (!outcome.value().need_checkpoint) {
      last_tail_error_ = Status::OK();
      return Status::OK();
    }
    PSTORM_RETURN_IF_ERROR(BootstrapLocked());
  }
  return Status::Internal(
      "replica catch-up kept requiring checkpoints; primary flushing "
      "faster than the follower can bootstrap");
}

Status ReplicaSession::Rebootstrap() {
  std::lock_guard<std::mutex> lock(session_mu_);
  return BootstrapLocked();
}

Status ReplicaSession::EnableSyncCommit() {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (sync_enabled_) return Status::OK();
  // Listener first, then heal: with the forwarder registered no further
  // batch can be missed, and the CatchUp below closes the gap behind any
  // batch that committed before registration. A batch interleaving between
  // the two steps arrives gapped, fails its writers once with
  // InvalidArgument, and is healed by the same CatchUp (or the next tick).
  forwarder_ = std::make_unique<SyncForwarder>(applier_.get());
  PSTORM_RETURN_IF_ERROR(primary_->SetCommitListener(forwarder_.get()));
  sync_enabled_ = true;
  Result<WalShipper::ShipOutcome> outcome = shipper_->CatchUp();
  PSTORM_RETURN_IF_ERROR(outcome.status());
  if (outcome.value().need_checkpoint) {
    PSTORM_RETURN_IF_ERROR(BootstrapLocked());
  }
  return Status::OK();
}

Status ReplicaSession::DisableSyncCommit() {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (!sync_enabled_) return Status::OK();
  PSTORM_RETURN_IF_ERROR(primary_->SetCommitListener(nullptr));
  sync_enabled_ = false;
  forwarder_.reset();
  return Status::OK();
}

void ReplicaSession::StartTailing(uint64_t poll_micros) {
  if (tailing_.exchange(true)) return;
  stop_latch_.Reset();
  tail_thread_ = std::thread([this, poll_micros] {
    while (!stop_latch_.stopped()) {
      // Errors are remembered in last_tail_error_ and retried next tick;
      // the tailer itself never dies.
      (void)TickOnce();
      // Interruptible poll sleep: StopTailing wakes it instead of waiting
      // out the interval.
      if (stop_latch_.WaitFor(poll_micros)) break;
    }
  });
}

void ReplicaSession::StopTailing() {
  if (!tailing_.load(std::memory_order_acquire)) return;
  stop_latch_.Stop();
  if (tail_thread_.joinable()) tail_thread_.join();
  tailing_.store(false);
}

Result<std::unique_ptr<Db>> ReplicaSession::Promote() {
  StopTailing();
  std::lock_guard<std::mutex> lock(session_mu_);
  if (follower_ == nullptr) {
    return Status::FailedPrecondition("replica session already promoted");
  }
  if (sync_enabled_) {
    // Requires the primary object to still be alive; an async session
    // never touches the (possibly dead) primary here.
    PSTORM_RETURN_IF_ERROR(primary_->SetCommitListener(nullptr));
    sync_enabled_ = false;
    forwarder_.reset();
  }
  PSTORM_RETURN_IF_ERROR(follower_->PromoteToPrimary());
  shipper_.reset();
  applier_.reset();
  PSTORM_LOG(Info) << "replica session: promoted " << follower_path_
                   << " to primary at epoch " << follower_->epoch();
  return std::move(follower_);
}

uint64_t ReplicaSession::lag() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (follower_ == nullptr) return 0;
  const uint64_t primary_last = primary_->last_sequence();
  const uint64_t applied = follower_->last_sequence();
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

Status ReplicaSession::last_tail_error() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  return last_tail_error_;
}

}  // namespace pstorm::storage

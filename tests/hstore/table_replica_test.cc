#include "hstore/table_replica.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "hstore/table.h"
#include "storage/env.h"
#include "test_strings.h"

namespace pstorm::hstore {
namespace {

TableSchema JobsSchema() {
  TableSchema schema;
  schema.name = "Jobs";
  schema.families = {"F"};
  return schema;
}

void PutRow(HTable* table, const std::string& row, const std::string& value) {
  PutOp put(row);
  put.Add("F", "col", value);
  ASSERT_TRUE(table->Put(put).ok()) << row;
}

void ExpectRow(const HTable& table, const std::string& row,
               const std::string& value, const std::string& context) {
  auto got = table.Get(row);
  ASSERT_TRUE(got.ok()) << context << " row " << row << ": " << got.status();
  ASSERT_EQ(got->cells().size(), 1u) << context;
  EXPECT_EQ(got->cells()[0].value, value) << context << " row " << row;
}

TEST(HTableReplicaTest, SyncedFollowerOpensReadOnlyWithIdenticalRows) {
  storage::InMemoryEnv env;
  auto primary = HTable::Open(&env, "/primary", JobsSchema()).value();
  for (int i = 0; i < 30; ++i) {
    PutRow(primary.get(), Numbered("row", i), Numbered("v", i));
  }

  auto replica = HTableReplica::Open(primary.get(), &env, "/follower");
  ASSERT_TRUE(replica.ok()) << replica.status();
  EXPECT_EQ((*replica)->lag(), 0u);

  HTableOptions read_only;
  read_only.read_only = true;
  auto standby =
      HTable::Open(&env, "/follower", JobsSchema(), read_only).value();
  for (int i = 0; i < 30; ++i) {
    ExpectRow(*standby, Numbered("row", i), Numbered("v", i), "standby");
  }
  // The standby serves reads but fences writes at both layers.
  PutOp put("rowX");
  put.Add("F", "col", "x");
  EXPECT_EQ(standby->Put(put).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(standby->DeleteRow("row0").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(standby->AggregatedDbStats().is_replica, 1u);
}

TEST(HTableReplicaTest, ReadOnlyOpenOfMissingTableFails) {
  storage::InMemoryEnv env;
  HTableOptions read_only;
  read_only.read_only = true;
  auto opened = HTable::Open(&env, "/nowhere", JobsSchema(), read_only);
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

TEST(HTableReplicaTest, SplitsArePickedUpByLaterSyncs) {
  storage::InMemoryEnv env;
  HTableOptions options;
  options.region_split_bytes = 2048;  // Force splits quickly.
  auto primary = HTable::Open(&env, "/primary", JobsSchema(), options).value();

  auto replica = HTableReplica::Open(primary.get(), &env, "/follower");
  ASSERT_TRUE(replica.ok()) << replica.status();
  ASSERT_EQ((*replica)->num_regions(), 1u);

  for (int i = 0; i < 60; ++i) {
    PutRow(primary.get(),
           "row" + std::string(1, static_cast<char>('a' + i % 26)) +
               std::to_string(i),
           std::string(120, 'x'));
  }
  ASSERT_GT(primary->num_regions(), 1u) << "workload did not force a split";
  ASSERT_TRUE((*replica)->Sync().ok());
  EXPECT_EQ((*replica)->num_regions(), primary->num_regions());
  EXPECT_EQ((*replica)->lag(), 0u);

  HTableOptions read_only;
  read_only.read_only = true;
  auto standby =
      HTable::Open(&env, "/follower", JobsSchema(), read_only).value();
  EXPECT_EQ(standby->num_regions(), primary->num_regions());
  auto primary_rows = primary->Scan(ScanSpec{}).value();
  auto standby_rows = standby->Scan(ScanSpec{}).value();
  ASSERT_EQ(primary_rows.size(), standby_rows.size());
  for (size_t i = 0; i < primary_rows.size(); ++i) {
    EXPECT_EQ(primary_rows[i].row(), standby_rows[i].row()) << i;
  }
}

TEST(HTableReplicaTest, PromotedFollowerIsWritableAndFencesOldPrimary) {
  storage::InMemoryEnv env;
  auto primary = HTable::Open(&env, "/primary", JobsSchema()).value();
  for (int i = 0; i < 10; ++i) {
    PutRow(primary.get(), "row" + std::to_string(i), "v");
  }
  auto replica = HTableReplica::Open(primary.get(), &env, "/follower");
  ASSERT_TRUE(replica.ok());
  ASSERT_TRUE((*replica)->Sync().ok());

  ASSERT_TRUE((*replica)->Promote().ok());
  // Inert afterwards.
  EXPECT_EQ((*replica)->Sync().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*replica)->Promote().code(), StatusCode::kFailedPrecondition);

  // The promoted root opens as a plain writable table with every row.
  auto promoted = HTable::Open(&env, "/follower", JobsSchema()).value();
  for (int i = 0; i < 10; ++i) {
    ExpectRow(*promoted, "row" + std::to_string(i), "v", "promoted");
  }
  PutRow(promoted.get(), "row-new", "fresh");
  ExpectRow(*promoted, "row-new", "fresh", "promoted");
  // Its regions carry a bumped epoch — the durable fence against the
  // deposed primary's shippers.
  EXPECT_GT(promoted->AggregatedDbStats().epoch,
            primary->AggregatedDbStats().epoch);
  EXPECT_EQ(promoted->AggregatedDbStats().is_replica, 0u);
}

TEST(HTableReplicaTest, StatsAggregateAcrossRegionSessions) {
  storage::InMemoryEnv env;
  HTableOptions options;
  options.region_split_bytes = 2048;
  auto primary = HTable::Open(&env, "/primary", JobsSchema(), options).value();
  for (int i = 0; i < 60; ++i) {
    PutRow(primary.get(), "row" + std::to_string(i), std::string(120, 'x'));
  }
  auto replica = HTableReplica::Open(primary.get(), &env, "/follower");
  ASSERT_TRUE(replica.ok());
  // The initial sync may have moved everything by checkpoint (split
  // housekeeping flushes each region); the counters must record that.
  const storage::ReplicationStats boot = (*replica)->stats();
  EXPECT_GT(boot.ship_rounds + boot.checkpoint_ships, 0u);
  // Incremental writes after the bootstrap travel as WAL records.
  for (int i = 60; i < 70; ++i) {
    PutRow(primary.get(), "row" + std::to_string(i), "y");
  }
  ASSERT_TRUE((*replica)->Sync().ok());
  const storage::ReplicationStats stats = (*replica)->stats();
  EXPECT_GE(stats.shipped_records, 10u);
  EXPECT_GE(stats.applied_records, 10u);
  // The primary's table-level stats expose the replication counters too.
  const storage::DbStats db_stats = primary->AggregatedDbStats();
  EXPECT_GT(db_stats.last_sequence, 0u);
}

/// A Sync whose region bootstrap fails (every follower-disk mutation
/// fails, so the checkpoint install does) leaves that region's session
/// without a follower; the next Sync must rebuild it, and lag() must not
/// read 0 meanwhile.
TEST(HTableReplicaTest, SyncAfterAFailedBootstrapRebuildsTheRegion) {
  storage::InMemoryEnv primary_disk;
  auto primary = HTable::Open(&primary_disk, "/primary", JobsSchema()).value();
  for (int i = 0; i < 10; ++i) {
    PutRow(primary.get(), Numbered("row", i), "v");
  }
  storage::InMemoryEnv follower_disk;
  storage::FaultInjectionEnv fault(&follower_disk);
  auto replica = HTableReplica::Open(primary.get(), &fault, "/follower");
  ASSERT_TRUE(replica.ok()) << replica.status();

  // Flushing truncates the region's log past its follower, so the next
  // Sync needs a checkpoint bootstrap.
  for (int i = 10; i < 20; ++i) {
    PutRow(primary.get(), Numbered("row", i), "v");
  }
  ASSERT_TRUE(primary->Flush().ok());
  PutRow(primary.get(), "row-tail", "v");

  fault.SetErrorProbability(1.0, 7);
  EXPECT_FALSE((*replica)->Sync().ok());
  EXPECT_GT((*replica)->lag(), 0u);
  fault.ClearFaults();
  ASSERT_TRUE((*replica)->Sync().ok());
  EXPECT_EQ((*replica)->lag(), 0u);

  HTableOptions read_only;
  read_only.read_only = true;
  auto standby =
      HTable::Open(&fault, "/follower", JobsSchema(), read_only).value();
  for (int i = 0; i < 20; ++i) {
    ExpectRow(*standby, Numbered("row", i), "v", "standby");
  }
  ExpectRow(*standby, "row-tail", "v", "standby");
}

/// Follower env whose first CreateDir of each region directory makes the
/// primary split once more, while armed: a session opening for a new
/// region lands a split in the middle of every Sync round.
class SplitOnRegionCreateEnv final : public storage::EnvWrapper {
 public:
  SplitOnRegionCreateEnv(storage::Env* target, HTable* primary)
      : EnvWrapper(target), primary_(primary) {}

  void ArmSplits(int n) { splits_left_ = n; }

  /// Puts rows above every earlier row into the last region until it
  /// splits.
  void ForceSplit() {
    const size_t regions = primary_->num_regions();
    for (int i = 0; i < 1000 && primary_->num_regions() == regions; ++i) {
      char row[16];
      std::snprintf(row, sizeof(row), "row%05d", next_row_++);
      PutRow(primary_, row, std::string(120, 'x'));
    }
    ASSERT_GT(primary_->num_regions(), regions) << "no split";
  }

  Status CreateDir(const std::string& path) override {
    const bool first = created_.insert(path).second;
    if (first && splits_left_ > 0 &&
        path.find("/region_") != std::string::npos) {
      --splits_left_;
      ForceSplit();
    }
    return target()->CreateDir(path);
  }

  int rows_written() const { return next_row_; }

 private:
  HTable* primary_;
  int splits_left_ = 0;
  int next_row_ = 0;
  std::set<std::string> created_;
};

TEST(HTableReplicaTest, SyncNeverShipsAMetaListingUnsyncedRegions) {
  storage::InMemoryEnv primary_disk;
  HTableOptions options;
  options.region_split_bytes = 2048;
  // Repeated-byte values compress to almost nothing; the splits need the
  // bytes.
  options.db_options.table_options.codec = storage::CodecType::kNone;
  auto primary =
      HTable::Open(&primary_disk, "/primary", JobsSchema(), options).value();
  storage::InMemoryEnv follower_disk;
  SplitOnRegionCreateEnv follower_env(&follower_disk, primary.get());
  follower_env.ForceSplit();
  auto replica =
      HTableReplica::Open(primary.get(), &follower_env, "/follower");
  ASSERT_TRUE(replica.ok()) << replica.status();
  const std::string synced_meta =
      follower_disk.ReadFile("/follower/TABLEMETA").value();

  // A split before the Sync, then one more in each of its 4 rounds: the
  // layout never settles, so the Sync must fail and keep the old meta
  // rather than ship one listing the last split's unsynced region.
  follower_env.ForceSplit();
  follower_env.ArmSplits(4);
  const Status storm = (*replica)->Sync();
  EXPECT_FALSE(storm.ok());
  EXPECT_EQ(follower_disk.ReadFile("/follower/TABLEMETA").value(),
            synced_meta);

  // The layout is still; the next Sync converges and ships every region.
  ASSERT_TRUE((*replica)->Sync().ok());
  EXPECT_EQ((*replica)->lag(), 0u);
  EXPECT_EQ((*replica)->num_regions(), primary->num_regions());
  HTableOptions read_only;
  read_only.read_only = true;
  auto standby =
      HTable::Open(&follower_disk, "/follower", JobsSchema(), read_only)
          .value();
  EXPECT_EQ(standby->num_regions(), primary->num_regions());
  auto primary_rows = primary->Scan(ScanSpec{}).value();
  auto standby_rows = standby->Scan(ScanSpec{}).value();
  EXPECT_EQ(primary_rows.size(),
            static_cast<size_t>(follower_env.rows_written()));
  ASSERT_EQ(standby_rows.size(), primary_rows.size());
  for (size_t i = 0; i < primary_rows.size(); ++i) {
    EXPECT_EQ(standby_rows[i].row(), primary_rows[i].row()) << i;
  }
}

}  // namespace
}  // namespace pstorm::hstore

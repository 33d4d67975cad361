#include "hstore/table_replica.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace pstorm::hstore

#include "hstore/table.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "common/random.h"
#include "storage/db.h"
#include "test_strings.h"

namespace pstorm::hstore {
namespace {

class HTableTest : public ::testing::Test {
 protected:
  static TableSchema ProfileSchema() {
    return TableSchema{"Jobs", {"Features"}};
  }

  std::unique_ptr<HTable> OpenTable(TableSchema schema = ProfileSchema(),
                                    HTableOptions options = {}) {
    auto table = HTable::Open(&env_, "/tables/jobs", std::move(schema),
                              options);
    EXPECT_TRUE(table.ok()) << table.status();
    return std::move(table).value();
  }

  /// Opens the table over a hand-written TABLEMETA whose schema lines
  /// match ProfileSchema(), followed by `body`.
  Status OpenWithMeta(const std::string& body) {
    std::string meta = "pstorm-htable-v1\nname Jobs\nfamily Features\n";
    meta += body;
    EXPECT_TRUE(env_.WriteFile("/tables/jobs/TABLEMETA", meta).ok());
    return HTable::Open(&env_, "/tables/jobs", ProfileSchema()).status();
  }

  storage::InMemoryEnv env_;
};

TEST_F(HTableTest, RejectsBadSchemas) {
  EXPECT_TRUE(HTable::Open(&env_, "/t", TableSchema{"", {"f"}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(HTable::Open(&env_, "/t", TableSchema{"T", {}})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(HTableTest, PutGetRoundTrip) {
  auto table = OpenTable();
  PutOp put("Static/Job1");
  put.Add("Features", "IN_FORMATTER", "TextInputFormat")
      .Add("Features", "MAPPER", "WordCountMapper");
  ASSERT_TRUE(table->Put(put).ok());

  auto row = table->Get("Static/Job1");
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(row->num_cells(), 2u);
  EXPECT_EQ(*row->GetValue("Features", "IN_FORMATTER"), "TextInputFormat");
  EXPECT_EQ(*row->GetValue("Features", "MAPPER"), "WordCountMapper");
  EXPECT_EQ(row->GetValue("Features", "ABSENT"), nullptr);
}

TEST_F(HTableTest, GetMissingRowIsNotFound) {
  auto table = OpenTable();
  EXPECT_TRUE(table->Get("nope").status().IsNotFound());
}

TEST_F(HTableTest, UnknownFamilyRejected) {
  auto table = OpenTable();
  PutOp put("row");
  put.Add("NoSuchFamily", "q", "v");
  EXPECT_TRUE(table->Put(put).IsInvalidArgument());
}

TEST_F(HTableTest, NulBytesInKeysRejected) {
  auto table = OpenTable();
  PutOp bad_row(std::string("r\0w", 3));
  bad_row.Add("Features", "q", "v");
  EXPECT_TRUE(table->Put(bad_row).IsInvalidArgument());

  PutOp bad_qualifier("row");
  bad_qualifier.Add("Features", std::string("q\0q", 3), "v");
  EXPECT_TRUE(table->Put(bad_qualifier).IsInvalidArgument());

  PutOp empty_row("");
  empty_row.Add("Features", "q", "v");
  EXPECT_TRUE(table->Put(empty_row).IsInvalidArgument());
}

TEST_F(HTableTest, OverwriteBumpsTimestamp) {
  auto table = OpenTable();
  PutOp put1("row");
  put1.Add("Features", "q", "old");
  ASSERT_TRUE(table->Put(put1).ok());
  auto row1 = table->Get("row");
  ASSERT_TRUE(row1.ok());
  const uint64_t ts1 = row1->cells()[0].timestamp;

  PutOp put2("row");
  put2.Add("Features", "q", "new");
  ASSERT_TRUE(table->Put(put2).ok());
  auto row2 = table->Get("row");
  ASSERT_TRUE(row2.ok());
  EXPECT_EQ(*row2->GetValue("Features", "q"), "new");
  EXPECT_GT(row2->cells()[0].timestamp, ts1);
}

TEST_F(HTableTest, DeleteRowRemovesAllCells) {
  auto table = OpenTable();
  PutOp put("row");
  put.Add("Features", "a", "1").Add("Features", "b", "2");
  ASSERT_TRUE(table->Put(put).ok());
  ASSERT_TRUE(table->DeleteRow("row").ok());
  EXPECT_TRUE(table->Get("row").status().IsNotFound());
  // Idempotent.
  EXPECT_TRUE(table->DeleteRow("row").ok());
}

TEST_F(HTableTest, SparseColumnsPerRow) {
  // HBase semantics: the set of columns under a family can differ per row.
  auto table = OpenTable();
  PutOp p1("Dynamic/Job1");
  p1.Add("Features", "MAP_SIZE_SEL", "2.1");
  PutOp p2("Dynamic/Job2");
  p2.Add("Features", "MAP_SIZE_SEL", "1.0")
      .Add("Features", "COMBINE_SIZE_SEL", "0.3");
  ASSERT_TRUE(table->Put(p1).ok());
  ASSERT_TRUE(table->Put(p2).ok());
  EXPECT_EQ(table->Get("Dynamic/Job1")->num_cells(), 1u);
  EXPECT_EQ(table->Get("Dynamic/Job2")->num_cells(), 2u);
}

TEST_F(HTableTest, ScanRangeInRowOrder) {
  auto table = OpenTable();
  for (const char* row : {"d", "b", "a", "c", "e"}) {
    PutOp put(row);
    put.Add("Features", "q", row);
    ASSERT_TRUE(table->Put(put).ok());
  }
  ScanSpec spec;
  spec.start_row = "b";
  spec.stop_row = "e";
  auto rows = table->Scan(spec);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0].row(), "b");
  EXPECT_EQ((*rows)[1].row(), "c");
  EXPECT_EQ((*rows)[2].row(), "d");
}

TEST_F(HTableTest, ScanRejectsBoundsContainingNul) {
  auto table = OpenTable();
  PutOp put("ab");
  put.Add("Features", "q", "v");
  ASSERT_TRUE(table->Put(put).ok());
  // Row "ab" sorts below stop row "ab\0" but its cell keys do not, so such
  // a bound would cut the row's cells apart.
  ScanSpec spec;
  spec.stop_row = std::string("ab\0", 3);
  EXPECT_TRUE(table->Scan(spec).status().IsInvalidArgument());
  spec.stop_row.clear();
  spec.start_row = std::string("a\0", 2);
  EXPECT_TRUE(table->Scan(spec).status().IsInvalidArgument());

  spec.start_row = "a";
  spec.stop_row = "ac";
  auto rows = table->Scan(spec);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].row(), "ab");
}

TEST_F(HTableTest, ScanWithPrefixFilterPushdown) {
  auto table = OpenTable();
  for (int i = 0; i < 10; ++i) {
    PutOp stat("Static/Job" + std::to_string(i));
    stat.Add("Features", "MAPPER", Numbered("M", i));
    ASSERT_TRUE(table->Put(stat).ok());
    PutOp dyn("Dynamic/Job" + std::to_string(i));
    dyn.Add("Features", "MAP_SIZE_SEL", std::to_string(i));
    ASSERT_TRUE(table->Put(dyn).ok());
  }
  ScanSpec spec;
  spec.filter = std::make_shared<PrefixFilter>("Dynamic/");
  ScanStats stats;
  auto rows = table->Scan(spec, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  for (const auto& row : *rows) {
    EXPECT_TRUE(row.row().rfind("Dynamic/", 0) == 0) << row.row();
  }
  EXPECT_EQ(stats.rows_scanned, 20u);
  EXPECT_EQ(stats.rows_transferred, 10u) << "pushdown must drop rows early";
  EXPECT_EQ(stats.rows_returned, 10u);
}

TEST_F(HTableTest, ClientSideFilteringTransfersEverything) {
  auto table = OpenTable();
  for (int i = 0; i < 10; ++i) {
    PutOp put("row" + std::to_string(i));
    put.Add("Features", "v", std::to_string(i));
    ASSERT_TRUE(table->Put(put).ok());
  }
  ScanSpec spec;
  spec.filter = std::make_shared<ColumnValueFilter>(
      "Features", "v", CompareOp::kEqual, "3");
  spec.server_side_filtering = false;
  ScanStats stats;
  auto rows = table->Scan(spec, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_EQ(stats.rows_transferred, 10u)
      << "client-side filtering ships every row";
  EXPECT_EQ(stats.rows_returned, 1u);
}

TEST_F(HTableTest, ScanFamilyRestriction) {
  auto table = OpenTable(TableSchema{"T", {"A", "B"}});
  PutOp put("row");
  put.Add("A", "q1", "x").Add("B", "q2", "y");
  ASSERT_TRUE(table->Put(put).ok());
  ScanSpec spec;
  spec.families = {"A"};
  auto rows = table->Scan(spec);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].num_cells(), 1u);
  EXPECT_EQ((*rows)[0].cells()[0].family, "A");
}

TEST_F(HTableTest, AndFilterComposes) {
  auto table = OpenTable();
  for (int i = 0; i < 6; ++i) {
    PutOp put("Dynamic/Job" + std::to_string(i));
    put.Add("Features", "sel", std::to_string(i));
    ASSERT_TRUE(table->Put(put).ok());
  }
  std::vector<std::shared_ptr<const RowFilter>> children = {
      std::make_shared<PrefixFilter>("Dynamic/"),
      std::make_shared<ColumnValueFilter>("Features", "sel",
                                          CompareOp::kGreaterOrEqual, "3"),
  };
  ScanSpec spec;
  spec.filter = std::make_shared<AndFilter>(children);
  auto rows = table->Scan(spec);
  ASSERT_TRUE(rows.ok());
  // String comparison: "3", "4", "5" match.
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(HTableTest, RegionSplitPreservesData) {
  HTableOptions options;
  options.region_split_bytes = 4 * 1024;  // Force frequent splits.
  options.db_options.memtable_flush_bytes = 1024;
  auto table = OpenTable(ProfileSchema(), options);

  std::map<std::string, std::string> model;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const std::string row = "job" + std::to_string(rng.NextUint64(100000));
    const std::string value(64, static_cast<char>('a' + (i % 26)));
    model[row] = value;
    PutOp put(row);
    put.Add("Features", "payload", value);
    ASSERT_TRUE(table->Put(put).ok());
  }
  EXPECT_GT(table->num_regions(), 1u) << "expected at least one split";

  // Every row is still readable via Get.
  for (const auto& [row, value] : model) {
    auto got = table->Get(row);
    ASSERT_TRUE(got.ok()) << row << ": " << got.status();
    EXPECT_EQ(*got->GetValue("Features", "payload"), value);
  }

  // And a full scan returns exactly the model, in order.
  auto rows = table->Scan(ScanSpec{});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), model.size());
  auto expected = model.begin();
  for (const auto& row : *rows) {
    EXPECT_EQ(row.row(), expected->first);
    ++expected;
  }
}

TEST_F(HTableTest, MetaEntriesDescribeRegions) {
  auto table = OpenTable();
  auto entries = table->MetaEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], "Jobs,,region_0");
}

TEST_F(HTableTest, ReopenPreservesDataAndRejectsSchemaChange) {
  HTableOptions options;
  options.region_split_bytes = 4 * 1024;
  options.db_options.memtable_flush_bytes = 512;
  {
    auto table = OpenTable(ProfileSchema(), options);
    for (int i = 0; i < 200; ++i) {
      PutOp put("row" + std::to_string(i));
      put.Add("Features", "q", std::string(50, 'v'));
      ASSERT_TRUE(table->Put(put).ok());
    }
  }
  // Reopen with the same schema: data intact (flushed portions; the htable
  // flushes through region splits and db auto-flushes).
  {
    auto table = OpenTable(ProfileSchema(), options);
    auto rows = table->Scan(ScanSpec{});
    ASSERT_TRUE(rows.ok());
    EXPECT_GT(rows->size(), 100u);
  }
  // Adding a column family after creation is an HBase-model violation.
  auto changed = HTable::Open(&env_, "/tables/jobs",
                              TableSchema{"Jobs", {"Features", "Extra"}});
  EXPECT_FALSE(changed.ok());
  EXPECT_EQ(changed.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(HTableTest, CorruptRegionRecoversEmptyAndIsReported) {
  HTableOptions options;
  options.region_split_bytes = 2048;
  options.db_options.memtable_flush_bytes = 512;
  // The repeated-byte payloads below compress to almost nothing, which
  // would keep the store under the split threshold; this test needs the
  // splits, not the compression.
  options.db_options.table_options.codec = storage::CodecType::kNone;
  size_t regions = 0;
  {
    auto table = OpenTable(ProfileSchema(), options);
    for (int i = 0; i < 60; ++i) {
      char row[16];
      std::snprintf(row, sizeof(row), "Row%02d", i);
      PutOp put(row);
      put.Add("Features", "q", std::string(64, 'x'));
      ASSERT_TRUE(table->Put(put).ok());
    }
    ASSERT_TRUE(table->Flush().ok());
    regions = table->num_regions();
    ASSERT_GT(regions, 1u);  // The corruption must not take the whole table.
  }
  // Smash region_0's store manifest: its Db can no longer open.
  ASSERT_TRUE(
      env_.WriteFile("/tables/jobs/region_0/MANIFEST", "not a manifest\n")
          .ok());

  auto table = OpenTable(ProfileSchema(), options);
  ASSERT_EQ(table->region_open_errors().size(), 1u);
  EXPECT_NE(table->region_open_errors()[0].find("region_0"),
            std::string::npos);
  EXPECT_EQ(table->num_regions(), regions);  // Recovered, not dropped.

  // The healthy regions still serve their rows; region_0's are gone.
  size_t readable = 0, lost = 0;
  for (int i = 0; i < 60; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "Row%02d", i);
    auto got = table->Get(row);
    if (got.ok()) {
      ++readable;
      EXPECT_EQ(*got->GetValue("Features", "q"), std::string(64, 'x'));
    } else {
      ASSERT_TRUE(got.status().IsNotFound()) << got.status();
      ++lost;
    }
  }
  EXPECT_GT(readable, 0u);
  EXPECT_GT(lost, 0u);

  // Scans surface the degradation instead of hiding it.
  ScanStats stats;
  auto rows = table->Scan(ScanSpec{}, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(stats.regions_recovered_empty, 1u);
  EXPECT_EQ(rows->size(), readable);

  // The recovered region is empty but writable again.
  PutOp put("Row00");
  put.Add("Features", "q", "rewritten");
  ASSERT_TRUE(table->Put(put).ok());
  EXPECT_EQ(*table->Get("Row00")->GetValue("Features", "q"), "rewritten");

  // The unreadable files were set aside, not destroyed.
  auto leftovers = env_.ListDir("/tables/jobs/region_0");
  ASSERT_TRUE(leftovers.ok());
  bool quarantined = false;
  for (const std::string& name : leftovers.value()) {
    if (name.size() > 11 &&
        name.compare(name.size() - 11, 11, ".quarantine") == 0) {
      quarantined = true;
    }
  }
  EXPECT_TRUE(quarantined);
}

TEST_F(HTableTest, ScanPublishesStatsOnMidScanCorruption) {
  {
    auto table = OpenTable();
    for (int i = 0; i < 10; ++i) {
      char row[16];
      std::snprintf(row, sizeof(row), "Row%02d", i);
      PutOp put(row);
      put.Add("Features", "q", "v");
      ASSERT_TRUE(table->Put(put).ok());
    }
    ASSERT_TRUE(table->Flush().ok());
  }
  // Plant a raw key with no family/qualifier separators directly in the
  // region's Db; it sorts after every real cell, so the scan dies on it
  // after doing real work.
  {
    auto db = storage::Db::Open(&env_, "/tables/jobs/region_0",
                                storage::DbOptions{});
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->Put("zzz-bad-cell-key", "x").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }

  auto table = OpenTable();
  ScanStats stats;
  stats.rows_scanned = 999999;  // Sentinel: the failed scan must overwrite.
  stats.regions_visited = 999999;
  auto rows = table->Scan(ScanSpec{}, &stats);
  ASSERT_TRUE(rows.status().IsCorruption()) << rows.status();
  // The corruption early-return still publishes the work done up to the
  // bad cell (it used to leave the caller's struct untouched): Row00..Row08
  // completed; Row09 was still open when the scan hit the bad key.
  EXPECT_EQ(stats.regions_visited, 1u);
  EXPECT_EQ(stats.rows_scanned, 9u);
  EXPECT_EQ(stats.rows_returned, 9u);
  EXPECT_EQ(stats.regions_recovered_empty, 0u);
}

TEST_F(HTableTest, HealthyReopenReportsNoRecoveredRegions) {
  {
    auto table = OpenTable();
    PutOp put("row");
    put.Add("Features", "q", "v");
    ASSERT_TRUE(table->Put(put).ok());
    ASSERT_TRUE(table->Flush().ok());
  }
  auto table = OpenTable();
  EXPECT_TRUE(table->region_open_errors().empty());
  ScanStats stats;
  ASSERT_TRUE(table->Scan(ScanSpec{}, &stats).ok());
  EXPECT_EQ(stats.regions_recovered_empty, 0u);
}

// TABLEMETA is the file a standby receives from its primary, so a reopen
// validates it before opening any region. Start key "6d" is "m".

TEST_F(HTableTest, TableMetaRejectsMalformedNumbers) {
  EXPECT_TRUE(OpenWithMeta("clock 3\nnext_region 2\nregion 0 \nregion 1 6d\n")
                  .ok());
  for (const char* body : {
           "clock x\nnext_region 1\nregion 0 \n",
           "clock 3\nnext_region zz\nregion 0 \n",
           "clock 3\nnext_region 1x\nregion 0 \n",
           "clock 3\nnext_region 18446744073709551616\nregion 0 \n",
           "clock 3\nnext_region 1\nregion -0 \n",
           "clock 3\nnext_region 1\nregion  \n",
       }) {
    EXPECT_TRUE(OpenWithMeta(body).IsCorruption()) << body;
  }
}

TEST_F(HTableTest, TableMetaRejectsDuplicateRegionIdsAndStartKeys) {
  EXPECT_TRUE(
      OpenWithMeta("next_region 2\nregion 0 \nregion 0 6d\n").IsCorruption());
  EXPECT_TRUE(
      OpenWithMeta("next_region 2\nregion 0 \nregion 1 \n").IsCorruption());
}

TEST_F(HTableTest, TableMetaRejectsARegionListNotStartingAtEmptyKey) {
  // Served, this meta would abort the first Get of a row below "m".
  EXPECT_TRUE(OpenWithMeta("next_region 1\nregion 0 6d\n").IsCorruption());
}

TEST_F(HTableTest, TableMetaRejectsNextRegionNotAboveEveryId) {
  EXPECT_TRUE(
      OpenWithMeta("next_region 1\nregion 0 \nregion 1 6d\n").IsCorruption());
  EXPECT_TRUE(OpenWithMeta("region 0 \n").IsCorruption());
}

}  // namespace
}  // namespace pstorm::hstore

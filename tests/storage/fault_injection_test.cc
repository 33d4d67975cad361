#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/db.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "test_strings.h"

namespace pstorm::storage {
namespace {

// ------------------------------------------------- FaultInjectionEnv unit

TEST(FaultInjectionEnvTest, CountsMutationsNotReads) {
  InMemoryEnv base;
  FaultInjectionEnv fault(&base);
  ASSERT_TRUE(fault.WriteFile("/a", "1").ok());
  auto file = fault.NewAppendableFile("/a").value();
  ASSERT_TRUE(file->Append("2").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(fault.RenameFile("/a", "/b").ok());
  ASSERT_TRUE(fault.DeleteFile("/b").ok());
  EXPECT_EQ(fault.mutation_count(), 5u);

  ASSERT_TRUE(fault.CreateDir("/d").ok());
  ASSERT_TRUE(fault.WriteFile("/c", "x").ok());
  (void)fault.NewAppendableFile("/e");
  (void)fault.ReadFile("/c");
  (void)fault.FileExists("/c");
  (void)fault.ListDir("/");
  EXPECT_EQ(fault.mutation_count(), 6u);  // Only the WriteFile counted.
}

TEST(FaultInjectionEnvTest, CrashAtWriteKeepsOldContentsPlusTornTmp) {
  InMemoryEnv base;
  FaultInjectionEnv fault(&base);
  ASSERT_TRUE(fault.WriteFile("/f", "old").ok());
  fault.CrashAtMutation(1);
  EXPECT_TRUE(fault.WriteFile("/f", "0123456789").IsIoError());
  EXPECT_TRUE(fault.crashed());
  // Atomicity contract: the target still holds the old bytes; the crash
  // left only a torn staging file behind.
  EXPECT_EQ(base.ReadFile("/f").value(), "old");
  EXPECT_EQ(base.ReadFile("/f.tmp").value(), "01234");
  // The process is down: every further mutation fails and applies nothing.
  EXPECT_TRUE(fault.WriteFile("/g", "x").IsIoError());
  EXPECT_TRUE(fault.DeleteFile("/f").IsIoError());
  EXPECT_TRUE(fault.RenameFile("/f", "/h").IsIoError());
  EXPECT_FALSE(base.FileExists("/g"));
  EXPECT_EQ(base.ReadFile("/f").value(), "old");
  // ...but reads keep working (the reopened process must see the disk).
  EXPECT_EQ(fault.ReadFile("/f").value(), "old");
}

TEST(FaultInjectionEnvTest, CrashAtAppendLandsTornSuffix) {
  InMemoryEnv base;
  FaultInjectionEnv fault(&base);
  auto log = fault.NewAppendableFile("/log").value();
  ASSERT_TRUE(log->Append("complete").ok());
  fault.CrashAtMutation(1);
  EXPECT_TRUE(log->Append("torntorn").IsIoError());
  EXPECT_EQ(base.ReadFile("/log").value(), "completetorn");
}

TEST(FaultInjectionEnvTest, PowerLossKeepsSyncedBytes) {
  InMemoryEnv base;
  FaultInjectionEnv fault(&base);
  auto log = fault.NewAppendableFile("/log").value();
  ASSERT_TRUE(log->Append("one").ok());
  ASSERT_TRUE(log->Append("two").ok());
  ASSERT_TRUE(log->Sync().ok());
  fault.DropUnsyncedData();
  EXPECT_EQ(base.ReadFile("/log").value(), "onetwo");
}

TEST(FaultInjectionEnvTest, PowerLossDropsAppendsSinceTheLastSync) {
  InMemoryEnv base;
  FaultInjectionEnv fault(&base);
  auto log = fault.NewAppendableFile("/log").value();
  ASSERT_TRUE(log->Append("synced").ok());
  ASSERT_TRUE(log->Sync().ok());
  ASSERT_TRUE(log->Append("-lost").ok());
  auto never_synced = fault.NewAppendableFile("/other").value();
  ASSERT_TRUE(never_synced->Append("lost too").ok());
  // The crash tears one more append and fails the sync after it.
  fault.CrashAtMutation(1);
  EXPECT_TRUE(log->Append("-torn").IsIoError());
  EXPECT_TRUE(log->Sync().IsIoError());
  EXPECT_EQ(base.ReadFile("/log").value(), "synced-lost-t");
  // A process crash keeps all of it; losing power keeps only the synced.
  fault.DropUnsyncedData();
  EXPECT_EQ(base.ReadFile("/log").value(), "synced");
  EXPECT_EQ(base.ReadFile("/other").value(), "");
}

TEST(FaultInjectionEnvTest, PowerLossKeepsWriteFileOutput) {
  InMemoryEnv base;
  FaultInjectionEnv fault(&base);
  ASSERT_TRUE(fault.WriteFile("/table", "whole").ok());
  // A WriteFile over unsynced appends replaces them durably, and a rename
  // carries the durable contents to the new name.
  auto log = fault.NewAppendableFile("/log").value();
  ASSERT_TRUE(log->Append("unsynced").ok());
  ASSERT_TRUE(fault.WriteFile("/log", "rewritten").ok());
  ASSERT_TRUE(fault.WriteFile("/m.tmp", "manifest").ok());
  ASSERT_TRUE(fault.RenameFile("/m.tmp", "/m").ok());
  fault.DropUnsyncedData();
  EXPECT_EQ(base.ReadFile("/table").value(), "whole");
  EXPECT_EQ(base.ReadFile("/log").value(), "rewritten");
  EXPECT_EQ(base.ReadFile("/m").value(), "manifest");
}

TEST(FaultInjectionEnvTest, ClearFaultsRestoresService) {
  InMemoryEnv base;
  FaultInjectionEnv fault(&base);
  fault.CrashAtMutation(1);
  EXPECT_TRUE(fault.WriteFile("/f", "x").IsIoError());
  EXPECT_TRUE(fault.crashed());
  fault.ClearFaults();
  EXPECT_FALSE(fault.crashed());
  EXPECT_EQ(fault.mutation_count(), 0u);
  EXPECT_TRUE(fault.WriteFile("/f", "x").ok());
  EXPECT_EQ(base.ReadFile("/f").value(), "x");
}

TEST(FaultInjectionEnvTest, ErrorProbabilityIsDeterministicPerSeed) {
  auto failure_pattern = [](uint64_t seed) {
    InMemoryEnv base;
    FaultInjectionEnv fault(&base);
    fault.SetErrorProbability(0.3, seed);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      const std::string path = "/f" + std::to_string(i);
      pattern += fault.WriteFile(path, "x").ok() ? '.' : 'E';
      // A failed mutation applies nothing.
      EXPECT_EQ(base.FileExists(path), pattern.back() == '.');
    }
    return pattern;
  };
  const std::string a = failure_pattern(17);
  EXPECT_EQ(a, failure_pattern(17));
  EXPECT_NE(a, failure_pattern(18));
  EXPECT_NE(a.find('E'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(FaultInjectionEnvTest, FlipByteBypassesFaultSchedule) {
  InMemoryEnv base;
  FaultInjectionEnv fault(&base);
  ASSERT_TRUE(fault.WriteFile("/f", std::string("abc")).ok());
  fault.CrashAtMutation(1);
  EXPECT_TRUE(fault.WriteFile("/x", "x").IsIoError());
  // Bit rot can be injected even on a "crashed" env — it models the disk,
  // not the process.
  ASSERT_TRUE(fault.FlipByte("/f", 1).ok());
  EXPECT_EQ(base.ReadFile("/f").value()[1], static_cast<char>('b' ^ 0xff));
  ASSERT_TRUE(fault.FlipByte("/f", 1).ok());
  EXPECT_EQ(base.ReadFile("/f").value(), "abc");
  EXPECT_TRUE(fault.FlipByte("/f", 99).IsInvalidArgument());
}

// ------------------------------------------------- crash-recovery harness

DbOptions CrashyOptions() {
  DbOptions options;
  options.l0_compaction_trigger = 3;  // Compactions happen within the run.
  return options;
}

/// One deterministic workload pass: a mix of puts and deletes with
/// periodic flushes (which cascade into compactions via the low L0
/// trigger). `model` tracks the acked state — the keys the caller was told
/// are durable. On the first failed operation the op's key is dropped from
/// the model (a failed op's effect is ambiguous: its WAL record may or may
/// not have landed before the crash) and the pass stops, like a process
/// dying mid-call. Returns true on a clean finish.
bool RunWorkload(Db* db, uint64_t seed,
                 std::map<std::string, std::string>* model) {
  Rng rng(seed);
  for (int i = 0; i < 40; ++i) {
    const std::string key = Numbered("k", rng.NextUint64(12));
    const bool is_delete = rng.Bernoulli(0.15);
    const std::string value = Numbered("v", i);
    const Status s = is_delete ? db->Delete(key) : db->Put(key, value);
    if (!s.ok()) {
      model->erase(key);
      return false;
    }
    if (is_delete) {
      model->erase(key);
    } else {
      (*model)[key] = value;
    }
    if (i % 10 == 9) {
      if (!db->Flush().ok()) return false;
    }
  }
  return true;
}

void VerifyAckedState(Db* db, const std::map<std::string, std::string>& model,
                      const std::string& context) {
  for (const auto& [key, value] : model) {
    auto got = db->Get(key);
    ASSERT_TRUE(got.ok()) << context << ": acked key " << key
                          << " unreadable: " << got.status().ToString();
    EXPECT_EQ(got.value(), value) << context << ": acked key " << key;
  }
}

/// The acceptance harness: crash at *every* mutation boundary the workload
/// crosses — every sstable write, WAL append, manifest write/rename, WAL
/// truncate, and obsolete-file delete across Put/Delete/flush/compaction —
/// then reboot and reopen. Every key acked before the crash must read back
/// with its acked value.
TEST(CrashRecoveryTest, EveryMutationBoundarySurvivesReopen) {
  for (const uint64_t seed : {uint64_t{42}, uint64_t{0xC0FFEE}}) {
    // Dry run to learn the workload's mutation count.
    uint64_t total_mutations = 0;
    {
      InMemoryEnv base;
      FaultInjectionEnv fault(&base);
      auto db = Db::Open(&fault, "/db", CrashyOptions()).value();
      fault.ClearFaults();  // Count workload mutations only.
      std::map<std::string, std::string> model;
      ASSERT_TRUE(RunWorkload(db.get(), seed, &model));
      total_mutations = fault.mutation_count();
      ASSERT_GT(total_mutations, 40u);  // Puts plus flush/compaction IO.
    }

    for (uint64_t crash_at = 1; crash_at <= total_mutations; ++crash_at) {
      const std::string context = "seed=" + std::to_string(seed) +
                                  " crash_at=" + std::to_string(crash_at);
      InMemoryEnv base;
      FaultInjectionEnv fault(&base);
      std::map<std::string, std::string> model;
      {
        auto db = Db::Open(&fault, "/db", CrashyOptions()).value();
        fault.CrashAtMutation(crash_at);
        EXPECT_FALSE(RunWorkload(db.get(), seed, &model)) << context;
        EXPECT_TRUE(fault.crashed()) << context;
      }
      // Reboot: faults clear, the surviving bytes are what they are.
      fault.ClearFaults();
      auto reopened = Db::Open(&fault, "/db", CrashyOptions());
      ASSERT_TRUE(reopened.ok())
          << context << ": " << reopened.status().ToString();
      VerifyAckedState(reopened.value().get(), model, context);
    }
  }
}

/// A v2 sstable whose compressed blocks rot on disk must be quarantined at
/// the next open — surfaced through the PR-2 quarantine counters — never
/// crash the process or poison reads of the surviving tables.
TEST(CrashRecoveryTest, CorruptCompressedSstableQuarantinesOnReopen) {
  InMemoryEnv base;
  FaultInjectionEnv fault(&base);
  {
    auto db = Db::Open(&fault, "/db", DbOptions()).value();
    for (int i = 0; i < 50; ++i) {
      const std::string key = "job-" + std::to_string(1000 + i);
      ASSERT_TRUE(db->Put(key, std::string(200, 'c')).ok());
    }
    ASSERT_TRUE(db->Flush().ok());  // Data now lives only in the sstable.
  }

  std::string sst_path;
  const std::vector<std::string> names = fault.ListDir("/db").value();
  for (const std::string& name : names) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      sst_path = "/db/" + name;
      break;
    }
  }
  ASSERT_FALSE(sst_path.empty()) << "flush produced no sstable";
  const size_t file_size = fault.ReadFile(sst_path).value().size();
  ASSERT_TRUE(fault.FlipByte(sst_path, file_size / 2).ok());

  auto reopened = Db::Open(&fault, "/db", DbOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened.value();
  EXPECT_GE(db.stats().quarantined_files, 1u);
  // The rotten table was dropped, so its keys are gone — but reads stay
  // well-formed (NotFound, not Corruption or a crash).
  auto got = db.Get("job-1025");
  EXPECT_TRUE(got.status().IsNotFound()) << got.status();
  // The file is preserved for forensics under the quarantine suffix.
  bool quarantined_file_seen = false;
  const std::vector<std::string> after = fault.ListDir("/db").value();
  for (const std::string& name : after) {
    if (name.find(".quarantine") != std::string::npos) {
      quarantined_file_seen = true;
    }
  }
  EXPECT_TRUE(quarantined_file_seen);
}

/// Intermittent-error soak: every mutation fails with probability p, the
/// workload keeps going past failures (no crash-stop), and the acked state
/// must still be intact after a reopen.
TEST(CrashRecoveryTest, AckedKeysSurviveIntermittentIoErrors) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    InMemoryEnv base;
    FaultInjectionEnv fault(&base);
    std::map<std::string, std::string> model;
    size_t failures = 0;
    {
      auto db = Db::Open(&fault, "/db", CrashyOptions()).value();
      fault.SetErrorProbability(0.08, seed * 1000 + 7);
      Rng rng(seed);
      for (int i = 0; i < 200; ++i) {
        const std::string key = Numbered("k", rng.NextUint64(25));
        const bool is_delete = rng.Bernoulli(0.15);
        const std::string value = Numbered("v", i);
        const Status s = is_delete ? db->Delete(key) : db->Put(key, value);
        if (!s.ok()) {
          // Ambiguous: the flush inside the call may have failed after the
          // WAL append landed. Stop tracking this key.
          model.erase(key);
          ++failures;
          continue;
        }
        if (is_delete) {
          model.erase(key);
        } else {
          model[key] = value;
        }
        if (i % 25 == 24 && !db->Flush().ok()) ++failures;
      }
    }
    ASSERT_GT(failures, 0u) << "seed " << seed << ": soak injected nothing";
    fault.ClearFaults();
    auto reopened = Db::Open(&fault, "/db", CrashyOptions());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    VerifyAckedState(reopened.value().get(), model,
                     "soak seed=" + std::to_string(seed));
  }
}

// ------------------------------------------------- group-commit crashes

void ExpectContiguousAscending(const WalSegment& segment,
                               const std::string& context) {
  for (size_t i = 1; i < segment.records.size(); ++i) {
    ASSERT_EQ(segment.records[i].sequence,
              segment.records[i - 1].sequence + 1)
        << context << ": torn or reordered record at index " << i;
  }
}

/// Concurrent writers share WAL batches through the group-commit leader,
/// so a crash can land mid-AppendBatch with followers queued behind the
/// dying leader. Crash at every mutation boundary the concurrent workload
/// crosses and check the two invariants the batching must never break:
/// the surviving log is a contiguous, in-order sequence prefix (a torn
/// tail is fine; a gap or reorder is not), and a reopen replays every
/// acked write.
TEST(CrashRecoveryTest, GroupCommitCrashLeavesContiguousOrderedLogPrefix) {
  constexpr int kThreads = 4;
  constexpr int kPutsPerThread = 15;
  DbOptions options;
  options.memtable_flush_bytes = 2048;  // Flushes happen within the run.
  options.l0_compaction_trigger = 3;

  // One thread's slice of the workload: disjoint keys, so the merged model
  // needs no cross-thread ordering. Stops at the first failure, dropping
  // the ambiguous key, like a client whose call never returned.
  auto worker = [&](Db* db, int id, std::map<std::string, std::string>* model) {
    for (int j = 0; j < kPutsPerThread; ++j) {
      const std::string key = Numbered("t", id) + "-k" + std::to_string(j % 6);
      const std::string value =
          std::string(80, 'x') + std::to_string(id * 100 + j);
      if (!db->Put(key, value).ok()) {
        model->erase(key);
        return;
      }
      (*model)[key] = value;
    }
  };
  auto run_workload = [&](Db* db, std::map<std::string, std::string>* model) {
    std::vector<std::map<std::string, std::string>> models(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back(worker, db, i, &models[i]);
    }
    for (auto& t : threads) t.join();
    for (auto& m : models) model->insert(m.begin(), m.end());
  };

  // Dry run to size the crash schedule. Group commit coalesces appends,
  // so the count varies run to run; crash points past the live schedule
  // simply finish clean, which the invariants tolerate.
  uint64_t total_mutations = 0;
  {
    InMemoryEnv base;
    FaultInjectionEnv fault(&base);
    auto db = Db::Open(&fault, "/db", options).value();
    fault.ClearFaults();
    std::map<std::string, std::string> model;
    run_workload(db.get(), &model);
    total_mutations = fault.mutation_count();
    ASSERT_GT(total_mutations, 5u);
  }

  for (uint64_t crash_at = 1; crash_at <= total_mutations; ++crash_at) {
    const std::string context = "gc crash_at=" + std::to_string(crash_at);
    InMemoryEnv base;
    FaultInjectionEnv fault(&base);
    std::map<std::string, std::string> model;
    {
      auto db = Db::Open(&fault, "/db", options).value();
      fault.CrashAtMutation(crash_at);
      run_workload(db.get(), &model);
    }
    fault.ClearFaults();

    // Invariant 1: the one log is a contiguous ascending prefix. A flush
    // truncates it in place; nothing rotates it aside to WAL.imm.
    EXPECT_FALSE(fault.FileExists("/db/WAL.imm")) << context;
    auto wal = ReadWalSegment(fault, "/db/WAL", 0);
    ASSERT_TRUE(wal.ok()) << context;
    ExpectContiguousAscending(*wal, context + " WAL");

    // Invariant 2: a reopen replays every acked write.
    auto reopened = Db::Open(&fault, "/db", options);
    ASSERT_TRUE(reopened.ok()) << context << ": " << reopened.status();
    VerifyAckedState(reopened.value().get(), model, context);
  }
}

}  // namespace
}  // namespace pstorm::storage

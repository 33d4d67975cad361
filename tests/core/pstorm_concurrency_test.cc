#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pstorm.h"
#include "jobs/datasets.h"

namespace pstorm::core {
namespace {

/// End-to-end concurrency coverage: many threads inside SubmitJob at once,
/// checked against a single-threaded replay of the same submission stream.
class PStormConcurrencyTest : public ::testing::Test {
 protected:
  PStormConcurrencyTest() : sim_(mrsim::ThesisCluster()) {}

  static PStormOptions QuickOptions() {
    PStormOptions options;
    options.cbo.global_samples = 60;  // Keep the soak quick.
    options.cbo.local_samples = 20;
    options.cbo.refinement_rounds = 1;
    return options;
  }

  std::unique_ptr<PStorM> NewSystem(storage::Env* env,
                                    const std::string& path) {
    auto system = PStorM::Create(&sim_, env, path, QuickOptions());
    EXPECT_TRUE(system.ok()) << system.status();
    return std::move(system).value();
  }

  static mrsim::DataSetSpec DataSet(const char* name) {
    auto d = jobs::FindDataSet(name);
    PSTORM_CHECK_OK(d.status());
    return d.value();
  }

  mrsim::Simulator sim_;
};

/// One submission of a prepared stream and what it produced.
struct Replay {
  PStorM::SubmissionOutcome outcome;
  Status status = Status::OK();
};

TEST_F(PStormConcurrencyTest, EightThreadsMatchSingleThreadedReplay) {
  // Two identical systems, both pre-populated with the same profile via
  // the same cold submission. Every later submission then matches in the
  // store without mutating it, so outcomes are order-independent and the
  // concurrent run must be bit-identical to the serial replay.
  const auto data = DataSet(jobs::kRandomText1Gb);
  storage::InMemoryEnv serial_env, parallel_env;
  auto serial_system = NewSystem(&serial_env, "/pstorm");
  auto parallel_system = NewSystem(&parallel_env, "/pstorm");
  for (PStorM* system : {serial_system.get(), parallel_system.get()}) {
    auto cold = system->SubmitJob(jobs::WordCount(), data,
                                  mrsim::Configuration{}, 999);
    ASSERT_TRUE(cold.ok()) << cold.status();
    ASSERT_TRUE(cold->stored_new_profile);
  }

  constexpr int kThreads = 8;
  constexpr int kPerThread = 2;
  constexpr int kSubmissions = kThreads * kPerThread;

  std::vector<Replay> serial(kSubmissions), parallel(kSubmissions);
  for (int i = 0; i < kSubmissions; ++i) {
    auto outcome = serial_system->SubmitJob(jobs::WordCount(), data,
                                            mrsim::Configuration{},
                                            1000 + i);
    serial[i].status = outcome.status();
    if (outcome.ok()) serial[i].outcome = std::move(outcome).value();
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kPerThread; ++j) {
        const int i = t * kPerThread + j;
        auto outcome = parallel_system->SubmitJob(jobs::WordCount(), data,
                                                  mrsim::Configuration{},
                                                  1000 + i);
        parallel[i].status = outcome.status();
        if (outcome.ok()) parallel[i].outcome = std::move(outcome).value();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kSubmissions; ++i) {
    ASSERT_TRUE(serial[i].status.ok()) << serial[i].status;
    ASSERT_TRUE(parallel[i].status.ok()) << parallel[i].status;
    const auto& s = serial[i].outcome;
    const auto& p = parallel[i].outcome;
    EXPECT_TRUE(p.matched) << "submission " << i;
    EXPECT_EQ(p.matched, s.matched);
    EXPECT_EQ(p.composite, s.composite);
    EXPECT_EQ(p.profile_source, s.profile_source);
    EXPECT_TRUE(p.config_used == s.config_used) << "submission " << i;
    EXPECT_EQ(p.runtime_s, s.runtime_s);
    EXPECT_EQ(p.sample_runtime_s, s.sample_runtime_s);
    EXPECT_EQ(p.predicted_runtime_s, s.predicted_runtime_s);
    EXPECT_EQ(p.stored_new_profile, s.stored_new_profile);
  }
  EXPECT_EQ(parallel_system->store().num_profiles(), 1u);
}

bool SameOutcome(const PStorM::SubmissionOutcome& a,
                 const PStorM::SubmissionOutcome& b) {
  return a.matched == b.matched && a.composite == b.composite &&
         a.profile_source == b.profile_source &&
         a.config_used == b.config_used && a.runtime_s == b.runtime_s &&
         a.sample_runtime_s == b.sample_runtime_s &&
         a.predicted_runtime_s == b.predicted_runtime_s &&
         a.stored_new_profile == b.stored_new_profile;
}

TEST_F(PStormConcurrencyTest, MemoAnswersForTheOldOrTheNewEntryUnderChurn) {
  // 8 threads submit word count while a writer cycles its matched key
  // through a changed re-put, an identical re-put, and a delete followed
  // by a re-put. The recommendation memo must never serve a record of a
  // replaced entry: every outcome is the serial answer for one version
  // of the key. A submission that finds the key deleted goes cold and
  // stores the profile it collects, which is one more version.
  const auto data = DataSet(jobs::kRandomText1Gb);
  const std::string key = "word-count@random-text-1gb";
  auto system_with = [&](storage::InMemoryEnv* env,
                         const profiler::ExecutionProfile* profile,
                         const staticanalysis::StaticFeatures& statics) {
    auto system = NewSystem(env, "/pstorm");
    if (profile != nullptr) {
      PSTORM_CHECK_OK(system->AddProfile(key, *profile, statics));
    }
    return system;
  };
  storage::InMemoryEnv seed_env;
  auto seeded = NewSystem(&seed_env, "/pstorm");
  ASSERT_TRUE(seeded->SubmitJob(jobs::WordCount(), data,
                                mrsim::Configuration{}, 7)
                  .ok());
  const StoredEntry original = seeded->store().GetEntry(key).value();
  const staticanalysis::StaticFeatures& statics = original.statics;
  profiler::ExecutionProfile changed = original.profile;
  changed.map_side.map_cpu_cost *= 1.5;
  changed.reduce_side.reduce_cpu_cost *= 1.5;

  // The writer paces the race: the submitters keep going until it has
  // run its cycles, within a per-thread cap that bounds the replay.
  constexpr int kThreads = 8;
  constexpr int kMinPerThread = 4;
  constexpr int kMaxPerThread = 24;
  constexpr int kCycles = 6;
  storage::InMemoryEnv env;
  auto system = system_with(&env, &original.profile, statics);
  std::vector<Replay> raced(kThreads * kMaxPerThread);
  // char, not bool: vector<bool> packs the flags into shared words, which
  // the submitting threads would race on.
  std::vector<char> ran(raced.size(), 0);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      ASSERT_TRUE(system->AddProfile(key, changed, statics).ok());
      ASSERT_TRUE(system->AddProfile(key, changed, statics).ok());
      ASSERT_TRUE(system->store().DeleteProfile(key).ok());
      ASSERT_TRUE(system->AddProfile(key, original.profile, statics).ok());
      ASSERT_TRUE(system->AddProfile(key, original.profile, statics).ok());
    }
    done.store(true);
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kMaxPerThread; ++j) {
        if (j >= kMinPerThread && done.load()) break;
        const int i = t * kMaxPerThread + j;
        auto outcome = system->SubmitJob(jobs::WordCount(), data,
                                         mrsim::Configuration{}, 2000 + i);
        raced[i].status = outcome.status();
        if (outcome.ok()) raced[i].outcome = std::move(outcome).value();
        ran[i] = 1;
        // Eight readers back to back would starve the writer of the
        // store's reader/writer locks; a pause lets its steps land
        // between submissions.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  writer.join();

  // The serial answers: one system per version of the key. A cold
  // submission's version is what an empty store collects at its seed.
  storage::InMemoryEnv original_env, changed_env;
  auto with_original = system_with(&original_env, &original.profile, statics);
  auto with_changed = system_with(&changed_env, &changed, statics);
  std::vector<std::unique_ptr<storage::InMemoryEnv>> cold_envs;
  std::vector<std::unique_ptr<PStorM>> with_collected;
  int cold = 0;
  for (size_t i = 0; i < raced.size(); ++i) {
    if (!ran[i]) continue;
    ASSERT_TRUE(raced[i].status.ok()) << raced[i].status;
    if (raced[i].outcome.matched) continue;
    ++cold;
    cold_envs.push_back(std::make_unique<storage::InMemoryEnv>());
    with_collected.push_back(system_with(cold_envs.back().get(), nullptr,
                                         statics));
    auto serial = with_collected.back()->SubmitJob(
        jobs::WordCount(), data, mrsim::Configuration{}, 2000 + i);
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_TRUE(SameOutcome(raced[i].outcome, *serial)) << "submission " << i;
  }
  int matched_original = 0, matched_changed = 0, matched_collected = 0;
  for (size_t i = 0; i < raced.size(); ++i) {
    const PStorM::SubmissionOutcome& got = raced[i].outcome;
    if (!ran[i] || !got.matched) continue;
    auto answer = [&](PStorM& serial) {
      return serial
          .SubmitJob(jobs::WordCount(), data, mrsim::Configuration{},
                     2000 + i)
          .value();
    };
    if (SameOutcome(got, answer(*with_original))) {
      ++matched_original;
    } else if (SameOutcome(got, answer(*with_changed))) {
      ++matched_changed;
    } else {
      bool collected = false;
      for (auto& serial : with_collected) {
        collected = collected || SameOutcome(got, answer(*serial));
      }
      matched_collected += collected;
      EXPECT_TRUE(collected) << "submission " << i
                             << " matches no version of " << key;
    }
  }
  EXPECT_GT(matched_original + matched_changed, 0);
  std::printf("[ churn ] outcomes from the original profile %d, from the "
              "changed one %d, from a collected one %d, cold %d\n",
              matched_original, matched_changed, matched_collected, cold);
}

TEST_F(PStormConcurrencyTest, ConcurrentColdSubmissionsStoreOrMatch) {
  // Distinct jobs submitted cold from different threads exercise the
  // store's write path under real contention. A submission may legally
  // match a similar profile that a concurrent thread stored first (the
  // cross-job reuse the matcher exists for), so the invariant is:
  // every submission either stores a profile or matches one, and the
  // store's bookkeeping agrees with the outcomes.
  storage::InMemoryEnv env;
  auto system = NewSystem(&env, "/pstorm");
  struct Submission {
    jobs::BenchmarkJob job;
    const char* dataset;
  };
  const std::vector<Submission> submissions = {
      {jobs::WordCount(), jobs::kRandomText1Gb},
      {jobs::WordCooccurrencePairs(2), jobs::kRandomText1Gb},
      {jobs::BigramRelativeFrequency(), jobs::kWikipedia35Gb},
      {jobs::WordCount(), jobs::kWikipedia35Gb},
  };

  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  std::atomic<int> stored{0};
  std::atomic<int> matched{0};
  for (size_t i = 0; i < submissions.size(); ++i) {
    threads.emplace_back([&, i] {
      auto outcome = system->SubmitJob(submissions[i].job,
                                       DataSet(submissions[i].dataset),
                                       mrsim::Configuration{}, 42 + i);
      if (!outcome.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
      } else if (outcome->matched) {
        matched.fetch_add(1, std::memory_order_relaxed);
      } else if (outcome->stored_new_profile) {
        stored.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(errors.load(), 0);
  // Nothing got lost: every submission resolved one way or the other, at
  // least the first finisher stored, and the count is exact.
  EXPECT_EQ(stored.load() + matched.load(),
            static_cast<int>(submissions.size()));
  EXPECT_GE(stored.load(), 1);
  EXPECT_EQ(system->store().num_profiles(),
            static_cast<size_t>(stored.load()));
  auto keys = system->store().ListJobKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), static_cast<size_t>(stored.load()));
  for (const std::string& key : keys.value()) {
    auto entry = system->store().GetEntryRef(key);
    ASSERT_TRUE(entry.ok()) << key << ": " << entry.status();
    EXPECT_EQ((*entry)->job_key, key);
  }
}

TEST_F(PStormConcurrencyTest, EntryRefStaysValidAcrossConcurrentMutation) {
  // The use-after-free regression GetEntryRef's shared_ptr contract
  // prevents: readers keep their decoded entries while another thread
  // replaces and deletes the same keys.
  storage::InMemoryEnv env;
  auto system = NewSystem(&env, "/pstorm");
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto cold = system->SubmitJob(jobs::WordCount(), data,
                                mrsim::Configuration{}, 7);
  ASSERT_TRUE(cold.ok());
  const std::string key = "word-count@random-text-1gb";
  ProfileStore& store = system->store();

  auto baseline = store.GetEntryRef(key);
  ASSERT_TRUE(baseline.ok());
  const auto entry = baseline.value();
  const std::string serialized = entry->profile.Serialize();

  std::atomic<bool> done{false};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        auto ref = store.GetEntryRef(key);
        if (!ref.ok()) {
          if (!ref.status().IsNotFound()) {
            read_errors.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        // Whatever version we got, it must be internally consistent.
        if ((*ref)->job_key != key || (*ref)->profile.Serialize().empty()) {
          read_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(store.DeleteProfile(key).ok());
    ASSERT_TRUE(
        store.PutProfile(key, entry->profile, entry->statics).ok());
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(read_errors.load(), 0);
  // The pinned entry from before the churn is untouched.
  EXPECT_EQ(entry->profile.Serialize(), serialized);
  EXPECT_EQ(store.num_profiles(), 1u);
}

}  // namespace
}  // namespace pstorm::core

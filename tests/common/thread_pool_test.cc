#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace pstorm::common {
namespace {

TEST(ThreadPoolTest, RunsScheduledTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::promise<void> done;
  auto done_future = done.get_future();
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&count, &done] {
      if (count.fetch_add(1) + 1 == 100) done.set_value();
    });
  }
  ASSERT_EQ(done_future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlock) {
  ThreadPool pool(2);
  // A task submitted from inside a running task must execute too.
  auto outer = pool.Submit([&pool] {
    auto inner = pool.Submit([] { return 7; });
    // Note: waiting on `inner` here would be the forbidden
    // task-blocks-on-task pattern; hand the future out instead.
    return inner;
  });
  EXPECT_EQ(outer.get().get(), 7);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Schedule([&count] { count.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue is drained.
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenForZeroRequested) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

}  // namespace
}  // namespace pstorm::common

#ifndef PSTORM_COMMON_THREAD_POOL_H_
#define PSTORM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace pstorm::common {

/// A fixed-size worker pool. Tasks are plain closures executed FIFO by the
/// next free worker. It is the RPC server's request-worker pool, and it
/// runs background flushes and compactions when passed as
/// `storage::DbOptions::maintenance_pool`. Tasks must never *block on*
/// other pool tasks: with every worker waiting, nothing is left to run
/// what they wait for.
///
/// Schedule/Submit are thread-safe, including from inside a running pool
/// task (nested submission enqueues; it never runs inline and never
/// blocks).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  /// Completes every task already scheduled, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker. Never blocks.
  void Schedule(std::function<void()> task);

  /// Enqueues `fn` and returns a future for its result; an exception
  /// thrown by `fn` surfaces from future.get().
  template <typename F>
  auto Submit(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    Schedule([task]() { (*task)(); });
    return result;
  }

  size_t num_threads() const { return threads_.size(); }

  /// The process-wide pool, sized to the hardware concurrency, created on
  /// first use and kept alive for the life of the process.
  static ThreadPool* Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace pstorm::common

#endif  // PSTORM_COMMON_THREAD_POOL_H_

#ifndef KGRAPH_COMMON_THREAD_POOL_H_
#define KGRAPH_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/status.h"

namespace kg {

/// Fixed-size worker pool used by the heavier experiment sweeps (random
/// forest training, label-budget grids). Tasks are `void()` closures;
/// synchronization of results is the caller's concern. `WaitIdle()` blocks
/// until the queue drains and all workers are idle.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void WaitIdle();

  size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Block-scheduled parallel loop with first-error propagation: splits
  /// [0, n) into contiguous chunks of `chunk_size` (0 = auto, see
  /// `ChunkSizeFor`) and runs `fn(begin, end)` once per chunk. Contiguous
  /// blocks amortize scheduling overhead and keep per-shard output
  /// trivially mergeable in chunk order, which is how the pipelines stay
  /// bit-identical to their serial runs. The first chunk (lowest begin
  /// index among executed chunks) returning a non-OK `Status` wins,
  /// chunks not yet started are cancelled, and that status is returned.
  /// Chunks may also cooperatively abort the loop by returning
  /// `Status::Cancelled`. Always waits for in-flight chunks before
  /// returning, so `fn` may safely capture stack state.
  Status TryParallelForChunked(
      size_t n, size_t chunk_size,
      const std::function<Status(size_t, size_t)>& fn);

  /// The auto chunk size used when callers pass `chunk_size == 0`: splits
  /// n into at most `kAutoChunks` blocks. Deliberately independent of the
  /// pool's thread count so chunk boundaries (and anything derived from
  /// them, e.g. `Rng::Split(begin)` shard streams) are identical across
  /// serial and parallel runs.
  static size_t ChunkSizeFor(size_t n);

  static constexpr size_t kAutoChunks = 64;

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // signaled when work arrives / stop.
  std::condition_variable idle_cv_;   // signaled when a task completes.
  std::queue<std::function<void()>> queue_;
  size_t active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace kg

#endif  // KGRAPH_COMMON_THREAD_POOL_H_

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>


namespace kg {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Static chunking: one contiguous range per worker keeps scheduling
  // overhead negligible for the uniform workloads we run.
  const size_t workers = std::min(n, threads_.size());
  std::atomic<size_t> next{0};
  for (size_t w = 0; w < workers; ++w) {
    Submit([&next, n, &fn] {
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  WaitIdle();
}

size_t ThreadPool::ChunkSizeFor(size_t n) {
  return std::max<size_t>(1, (n + kAutoChunks - 1) / kAutoChunks);
}

Status ThreadPool::TryParallelForChunked(
    size_t n, size_t chunk_size,
    const std::function<Status(size_t, size_t)>& fn) {
  if (n == 0) return Status::OK();
  if (chunk_size == 0) chunk_size = ChunkSizeFor(n);
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  std::atomic<size_t> next{0};
  std::atomic<bool> cancelled{false};
  // Of the chunks that failed before cancellation took effect, keep the
  // one with the lowest index — the error a serial run would hit first.
  std::mutex err_mu;
  size_t err_chunk = num_chunks;
  Status err;

  auto run_chunks = [&] {
    while (true) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      if (cancelled.load(std::memory_order_acquire)) return;
      const size_t begin = c * chunk_size;
      const size_t end = std::min(n, begin + chunk_size);
      Status s = fn(begin, end);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (c < err_chunk) {
          err_chunk = c;
          err = std::move(s);
        }
        cancelled.store(true, std::memory_order_release);
      }
    }
  };

  const size_t workers = std::min(num_chunks, threads_.size());
  if (workers <= 1) {
    run_chunks();  // Serial fallback: chunk order == index order.
    return err;
  }
  for (size_t w = 0; w < workers; ++w) Submit(run_chunks);
  WaitIdle();
  return err;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace kg

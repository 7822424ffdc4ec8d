#include "common/exec_policy.h"

#include <algorithm>
#include <thread>

#include "common/thread_pool.h"

namespace kg {

ExecPolicy ExecPolicy::Hardware() {
  ExecPolicy p;
  p.num_threads = std::max(1u, std::thread::hardware_concurrency());
  return p;
}

void ParallelForChunked(const ExecPolicy& policy, size_t n,
                        const std::function<void(size_t, size_t)>& fn) {
  (void)TryParallelForChunked(policy, n,
                              [&fn](size_t begin, size_t end) {
                                fn(begin, end);
                                return Status::OK();
                              });
}

Status TryParallelForChunked(
    const ExecPolicy& policy, size_t n,
    const std::function<Status(size_t, size_t)>& fn) {
  if (n == 0) return Status::OK();
  const size_t chunk = policy.chunk_size != 0 ? policy.chunk_size
                                              : ThreadPool::ChunkSizeFor(n);
  if (!policy.parallel()) {
    for (size_t begin = 0; begin < n; begin += chunk) {
      KG_RETURN_IF_ERROR(fn(begin, std::min(n, begin + chunk)));
    }
    return Status::OK();
  }
  // Transient pool: creation cost (tens of microseconds) is negligible
  // next to the stage bodies these loops run, and it keeps stages free of
  // pool-lifetime plumbing.
  ThreadPool pool(policy.num_threads);
  return pool.TryParallelForChunked(n, chunk, fn);
}

}  // namespace kg

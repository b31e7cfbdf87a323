#ifndef MESA_COMMON_PARALLEL_H_
#define MESA_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mesa {

/// A fixed-size pool of worker threads shared by every parallelized hot
/// path (permutation CI test, QueryAnalysis::Prepare, MCIMR scoring).
///
/// Determinism contract: every parallel helper in this header produces
/// results that are byte-identical to a serial execution, at any thread
/// count. The ingredients:
///   * work is split into chunks whose *boundaries* never depend on which
///     thread runs them, and per-index work is independent (callers must
///     not carry state across indices — derive per-index RNGs with
///     MixSeed(seed, index) instead of sharing one generator);
///   * ParallelMapReduce chunk boundaries depend only on (begin, end,
///     grain), never on the thread count, and partials are reduced in
///     chunk order — so even non-associative (floating-point) reductions
///     are thread-count-invariant;
///   * exceptions are rethrown from the lowest-index failing chunk.
///
/// Scheduling is dynamic (threads pull task indices from a shared
/// counter), which is safe because only the task *contents* matter.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` total lanes of concurrency: the
  /// calling thread participates in every Run, so `num_threads - 1` worker
  /// threads are spawned. `num_threads == 1` means fully serial.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (worker threads + the participating caller).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs task(0) ... task(num_tasks - 1), distributing them over the pool
  /// plus the calling thread, and returns when all have finished. Safe to
  /// call from multiple external threads at once (each call has its own
  /// completion state). Called from inside a pool worker, it degrades to a
  /// serial inline loop — nested parallelism never deadlocks.
  /// The first exception (lowest task index) is rethrown in the caller.
  void Run(size_t num_tasks, const std::function<void(size_t)>& task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide pool, created on first use. Size: MESA_NUM_THREADS if
/// it is set to a whole positive integer, else
/// std::thread::hardware_concurrency(). Any other value (0, negative,
/// trailing junk) logs one warning naming it and uses the hardware default.
std::shared_ptr<ThreadPool> GlobalThreadPool();

/// Replaces the global pool with one of `num_threads` lanes (>= 1).
/// In-flight parallel calls keep the old pool alive until they finish, so
/// resizing is safe at any time.
void SetNumThreads(size_t num_threads);

/// Lane count of the current global pool.
size_t NumThreads();

/// Parallel loop: body(i) for i in [begin, end). Every index is its own
/// task pulled from the pool's shared counter, so a slow index never holds
/// up the indices after it. Per-index work must be independent; any
/// cross-index accumulation belongs in ParallelMapReduce instead.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& body);

/// Deterministic map-reduce: reduce(init, map(begin), map(begin+1), ...)
/// with partials formed per chunk and combined in chunk order. Chunk
/// boundaries depend only on (begin, end, grain) — never on the thread
/// count — so results are bit-identical at 1 or N threads even for
/// floating-point reductions. grain = 0 picks a default of
/// max(1, range / 64) indices per chunk.
template <typename T, typename MapFn, typename ReduceFn>
T ParallelMapReduce(size_t begin, size_t end, T init, const MapFn& map,
                    const ReduceFn& reduce, size_t grain = 0) {
  if (end <= begin) return init;
  const size_t range = end - begin;
  if (grain == 0) grain = std::max<size_t>(1, range / 64);
  const size_t num_chunks = (range + grain - 1) / grain;
  std::vector<T> partials(num_chunks, init);
  ParallelFor(0, num_chunks, [&](size_t c) {
    const size_t lo = begin + c * grain;
    const size_t hi = std::min(end, lo + grain);
    T acc = init;
    for (size_t i = lo; i < hi; ++i) acc = reduce(acc, map(i));
    partials[c] = acc;
  });
  T out = init;
  for (const T& p : partials) out = reduce(out, p);
  return out;
}

}  // namespace mesa

#endif  // MESA_COMMON_PARALLEL_H_

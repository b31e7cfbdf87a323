#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace mesa {

namespace {

thread_local bool t_in_worker = false;

size_t DefaultNumThreads() {
  if (const char* env = std::getenv("MESA_NUM_THREADS")) {
    const char* end = env + std::strlen(env);
    size_t v = 0;
    const auto parsed = std::from_chars(env, end, v);
    if (parsed.ec == std::errc() && parsed.ptr == end && v >= 1) return v;
    MESA_LOG(Warning) << "ignoring MESA_NUM_THREADS=\"" << env
                      << "\" (not a whole positive integer); using the "
                         "hardware default";
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

std::mutex g_pool_mu;
std::shared_ptr<ThreadPool> g_pool;  // guarded by g_pool_mu

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t workers = num_threads == 0 ? 0 : num_threads - 1;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers drain the queue before exiting, so every Run still in flight
  // completes (its helpers never block — they only pull a chunk counter).
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::InWorker() { return t_in_worker; }

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to do
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Run(size_t num_tasks,
                     const std::function<void(size_t)>& task) {
  if (num_tasks == 0) return;

  // Serial lanes: no workers, or we *are* a worker (nested call) — running
  // inline avoids queuing behind ourselves.
  if (workers_.empty() || t_in_worker || num_tasks == 1) {
    for (size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }

  // Per-call completion state. Heap-shared because a queued helper may be
  // dequeued (and probe `next`) after every task has already finished and
  // the caller has moved on; `task` itself is only dereferenced for indices
  // below num_tasks, all of which complete before the caller returns.
  struct CallState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> remaining;
    std::mutex mu;
    std::condition_variable done;
    std::vector<std::exception_ptr> errors;
  };
  auto state = std::make_shared<CallState>();
  state->remaining.store(num_tasks, std::memory_order_relaxed);
  state->errors.assign(num_tasks, nullptr);

  // Helpers inherit the caller's span path so spans opened inside the
  // task nest under the caller's trace no matter which thread runs them
  // (span paths stay invariant to pool size; see common/metrics.h). The
  // caller's own drain() below re-installs its current path, a no-op.
  const std::string trace_path = metrics::CurrentPath();
  const std::string trace_id = metrics::CurrentTraceId();
  // The caller's cancel token rides along the same way: a checkpoint hit
  // inside a pool worker unwinds that task, and the stored exception is
  // rethrown to the caller below (serial lanes above inherit the caller's
  // thread-local token directly).
  const std::shared_ptr<CancelToken> cancel_token = CurrentCancelToken();
  const std::function<void(size_t)>* task_ptr = &task;
  auto drain = [state, task_ptr, num_tasks, trace_path, trace_id,
                cancel_token] {
    metrics::PathGuard trace_guard(trace_path);
    metrics::TraceIdGuard trace_id_guard(trace_id);
    CancelScope cancel_scope(cancel_token);
    for (;;) {
      const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) return;
      try {
        (*task_ptr)(i);
      } catch (...) {
        state->errors[i] = std::current_exception();
      }
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->done.notify_all();
      }
    }
  };

  const size_t helpers = std::min(workers_.size(), num_tasks - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < helpers; ++i) queue_.emplace_back(drain);
  }
  if (helpers == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }

  drain();  // the caller participates

  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done.wait(lock, [&] {
      return state->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  for (const std::exception_ptr& e : state->errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::shared_ptr<ThreadPool> GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = std::make_shared<ThreadPool>(DefaultNumThreads());
  return g_pool;
}

void SetNumThreads(size_t num_threads) {
  auto pool = std::make_shared<ThreadPool>(std::max<size_t>(1, num_threads));
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_pool = std::move(pool);
}

size_t NumThreads() { return GlobalThreadPool()->num_threads(); }

void ParallelForChunks(size_t begin, size_t end,
                       const std::function<void(size_t, size_t)>& body) {
  if (end <= begin) return;
  const size_t range = end - begin;
  auto pool = GlobalThreadPool();
  const size_t chunks = std::min(range, pool->num_threads());
  const size_t base = range / chunks;
  const size_t extra = range % chunks;  // first `extra` chunks get +1
  pool->Run(chunks, [&](size_t c) {
    const size_t lo = begin + c * base + std::min(c, extra);
    const size_t hi = lo + base + (c < extra ? 1 : 0);
    body(lo, hi);
  });
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& body) {
  if (end <= begin) return;
  GlobalThreadPool()->Run(end - begin, [&](size_t i) { body(begin + i); });
}

}  // namespace mesa

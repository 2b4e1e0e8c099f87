// Fixed-size worker pool used to run simulated mapper/reducer tasks.
//
// The runtime substrate (src/runtime) models each Hadoop map task as one unit
// of work submitted to this pool; the pool size plays the role of the number
// of machines/cores available (Section 6.2's "1/2/4 mappers" axis).
#ifndef SYMPLE_COMMON_THREAD_POOL_H_
#define SYMPLE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace symple {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  // Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not throw; an escaping exception terminates
  // the process. Callers that run user code (the map/reduce task bodies in
  // src/runtime/map_phase.h, reduce_phase.h) therefore catch SympleError inside the task and
  // degrade or report the failure through their own result channel.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently running tasks
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

// Convenience: runs `tasks[i]()` for all i on `num_threads` workers and waits
// for completion.
void RunParallel(size_t num_threads, std::vector<std::function<void()>> tasks);

// Per-worker deques of work-item indexes with stealing, the substrate of the
// morsel-driven map scheduler (docs/scheduling.md). Each worker owns one deque
// and pops from its FRONT, so the items a queue was seeded with run in seed
// order as long as nobody interferes; an idle worker steals from the BACK of
// another worker's deque, taking the work its owner is furthest from reaching.
// Items are plain size_t indexes into a caller-owned array, which keeps the
// queues trivially copy-free and lets one structure serve any payload type.
//
// Every deque is guarded by its own mutex rather than a lock-free chase-lev
// ring: morsels are thousands of records each, so queue traffic is a few
// thousand transfers per run and an uncontended lock is nowhere near the
// profile. Correct-and-simple wins until the profiler disagrees.
class StealingIndexQueues {
 public:
  explicit StealingIndexQueues(size_t num_queues);

  StealingIndexQueues(const StealingIndexQueues&) = delete;
  StealingIndexQueues& operator=(const StealingIndexQueues&) = delete;

  // Appends `item` to `queue`'s deque. Thread-safe, though typical use seeds
  // every queue before the workers start.
  void Push(size_t queue, size_t item);

  // Owner path: takes the front item of `queue`. Returns false if empty.
  bool PopLocal(size_t queue, size_t* item);

  // Thief path: scans the other queues (starting after `thief`, wrapping) and
  // takes the BACK item of the first non-empty one. Returns false only when
  // every queue was observed empty; bumps the steal counter on success.
  bool Steal(size_t thief, size_t* item);

  // Owner-or-thief convenience: PopLocal, then Steal. Sets *stolen.
  bool Next(size_t worker, size_t* item, bool* stolen);

  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  size_t num_queues() const { return queues_.size(); }

 private:
  struct Queue {
    std::mutex mu;
    std::deque<size_t> items;
  };
  std::vector<std::unique_ptr<Queue>> queues_;
  std::atomic<uint64_t> steals_{0};
};

}  // namespace symple

#endif  // SYMPLE_COMMON_THREAD_POOL_H_

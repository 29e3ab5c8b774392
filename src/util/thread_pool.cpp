#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace dlaja {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto body = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count || failed.load()) return;
      try {
        fn(i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!failed.exchange(true)) first_error = std::current_exception();
        return;
      }
    }
  };

  const std::size_t lanes = std::min(count, size());
  std::vector<std::future<void>> futures;
  futures.reserve(lanes);
  // One lane runs inline so that a single-threaded pool still makes progress
  // even while its worker is busy with an unrelated task.
  for (std::size_t lane = 1; lane < lanes; ++lane) futures.push_back(submit(body));
  body();
  for (auto& future : futures) future.get();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dlaja

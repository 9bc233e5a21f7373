#include "src/core/trainer_thread.hpp"

#include <utility>

#include "src/telemetry/registry.hpp"
#include "src/telemetry/trace.hpp"

namespace hcrl::core {

TrainerThread::TrainerThread(std::string name)
    : thread_([this, shard = telemetry::current_shard(), name = std::move(name)] {
        telemetry::ShardScope scope(shard);
        telemetry::set_thread_name(name);
        run();
      }) {}

TrainerThread::~TrainerThread() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_one();
  thread_.join();
}

TrainerThread::Ticket TrainerThread::submit(std::function<void()> task) {
  Ticket ticket = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ticket = ++submitted_;
  }
  work_cv_.notify_one();
  return ticket;
}

bool TrainerThread::wait(Ticket ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (completed_ >= ticket) return false;
  done_cv_.wait(lock, [&] { return completed_ >= ticket; });
  return true;
}

void TrainerThread::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and everything queued has run
    {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      task();
    }
    lock.lock();
    ++completed_;
    done_cv_.notify_all();
  }
}

}  // namespace hcrl::core

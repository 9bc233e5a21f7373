// One named FIFO worker thread for learning work that runs beside the
// decision path: the local tier's LSTM training rounds (`lstm-trainer`) and
// the global tier's bootstrap-target sweep (`dqn-bootstrap`).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace hcrl::core {

/// Runs queued tasks one at a time, in submission order, on its own thread.
/// The thread carries `name` in `--chrome-trace` output and log tags, and it
/// writes telemetry into the constructing thread's shard, so its GEMM counts
/// land in the run's registry. Tasks must not throw: each owner catches its
/// task's exception itself and rethrows it after the wait.
class TrainerThread {
 public:
  using Ticket = std::uint64_t;

  explicit TrainerThread(std::string name);
  /// Runs every queued task, then joins.
  ~TrainerThread();
  TrainerThread(const TrainerThread&) = delete;
  TrainerThread& operator=(const TrainerThread&) = delete;

  /// Queue `task`; never blocks. Tickets count up from 1.
  Ticket submit(std::function<void()> task);
  /// Block until task `ticket` (and so every task before it) has run;
  /// ticket 0 returns at once. Returns true when the call had to block.
  bool wait(Ticket ticket);

 private:
  void run();

  std::mutex mutex_;  // guards the four members below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<std::function<void()>> queue_;
  Ticket submitted_ = 0;
  Ticket completed_ = 0;
  bool stop_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

}  // namespace hcrl::core

#include "src/core/trainer_thread.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "src/telemetry/profiler.hpp"
#include "src/telemetry/registry.hpp"
#include "src/telemetry/trace.hpp"

namespace hcrl::core {
namespace {

TEST(TrainerThread, RunsTasksInSubmissionOrder) {
  std::vector<int> ran;
  TrainerThread::Ticket last = 0;
  {
    TrainerThread trainer("test-trainer");
    for (int i = 0; i < 50; ++i) {
      const TrainerThread::Ticket t = trainer.submit([&ran, i] { ran.push_back(i); });
      EXPECT_EQ(t, last + 1);
      last = t;
    }
    trainer.wait(last);
    ASSERT_EQ(ran.size(), 50u);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(ran[static_cast<std::size_t>(i)], i);
  }
}

TEST(TrainerThread, WaitReportsWhetherItBlocked) {
  TrainerThread trainer("test-trainer");
  EXPECT_FALSE(trainer.wait(0));
  std::promise<void> open;
  trainer.submit([f = open.get_future().share()] { f.wait(); });
  const TrainerThread::Ticket behind = trainer.submit([] {});
  std::future<bool> waited =
      std::async(std::launch::async, [&] { return trainer.wait(behind); });
  EXPECT_EQ(waited.wait_for(std::chrono::milliseconds(30)), std::future_status::timeout);
  open.set_value();
  EXPECT_TRUE(waited.get());
  EXPECT_FALSE(trainer.wait(behind));  // already done
}

TEST(TrainerThread, DestructorRunsEveryQueuedTask) {
  int ran = 0;
  std::promise<void> open;
  {
    TrainerThread trainer("test-trainer");
    trainer.submit([f = open.get_future().share()] { f.wait(); });
    for (int i = 0; i < 20; ++i) trainer.submit([&ran] { ++ran; });
    open.set_value();
  }
  EXPECT_EQ(ran, 20);
}

TEST(TrainerThread, BindsTheConstructingShardAndNamesItsTrack) {
  telemetry::set_enabled(true);
  telemetry::TraceCollector collector;
  collector.install();
  static const telemetry::SpanDef kTask("test.trainer_task");
  std::size_t task_shard = 0;
  {
    telemetry::ShardScope scope(5);
    TrainerThread trainer("dqn-bootstrap");
    trainer.wait(trainer.submit([&] {
      task_shard = telemetry::current_shard();
      telemetry::Span span(kTask);
    }));
  }
  collector.uninstall();
  telemetry::set_enabled(false);
  EXPECT_EQ(task_shard, 5u);
  std::ostringstream os;
  collector.write_json(os);
  EXPECT_NE(os.str().find("\"args\":{\"name\":\"dqn-bootstrap\"}"), std::string::npos)
      << os.str();
}

}  // namespace
}  // namespace hcrl::core

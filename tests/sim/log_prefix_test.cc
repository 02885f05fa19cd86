// The "[t=<now>us] " log prefix: every line carries the simulated time of
// the innermost Simulator still alive on the logging thread; Simulators may
// be destroyed in any order, and one on another thread changes nothing here.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>

#include "sim/simulator.hh"
#include "util/log.hh"

namespace repli::sim {
namespace {

/// A Simulator whose clock reads `now`.
std::unique_ptr<Simulator> sim_at(Time now) {
  auto sim = std::make_unique<Simulator>(1);
  sim->run_until(now);
  return sim;
}

class LogPrefix : public ::testing::Test {
 protected:
  void SetUp() override { util::Logger::instance().set_level(util::LogLevel::Info); }
  void TearDown() override { util::Logger::instance().set_level(util::LogLevel::Off); }
};

TEST_F(LogPrefix, InnermostLiveClockStampsEachLine) {
  ::testing::internal::CaptureStderr();
  util::log_info("before");
  auto a = sim_at(100);
  util::log_info("a");
  auto b = sim_at(250);
  auto c = sim_at(400);
  util::log_info("c");
  b.reset();  // a middle clock goes first
  util::log_info("c still");
  c.reset();
  util::log_info("back to a");
  auto d = sim_at(700);
  a.reset();  // an outer clock goes first
  util::log_info("d");
  d.reset();
  util::log_info("after");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "before\n"
            "[t=100us] a\n"
            "[t=400us] c\n"
            "[t=400us] c still\n"
            "[t=100us] back to a\n"
            "[t=700us] d\n"
            "after\n");
}

TEST_F(LogPrefix, SimulatorOnAnotherThreadDoesNotChangeThisThreadsPrefix) {
  ::testing::internal::CaptureStderr();
  auto mine = sim_at(100);
  std::promise<void> worker_ready;
  std::promise<void> main_logged;
  std::thread worker([&] {
    util::log_info("worker bare");
    auto theirs = sim_at(999);
    worker_ready.set_value();
    main_logged.get_future().wait();
    util::log_info("worker");
  });
  worker_ready.get_future().wait();
  util::log_info("main");
  main_logged.set_value();
  worker.join();
  util::log_info("main again");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "worker bare\n"
            "[t=100us] main\n"
            "[t=999us] worker\n"
            "[t=100us] main again\n");
}

}  // namespace
}  // namespace repli::sim

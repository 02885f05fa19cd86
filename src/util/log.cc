#include "util/log.hh"

#include <cstdio>

namespace repli::util {
namespace {

// The innermost live LogClock of this thread; the list runs outward.
thread_local LogClock* t_innermost = nullptr;

}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, const std::string& msg) {
  if (this->level() < level) return;
  std::string line;
  if (t_innermost != nullptr) line = "[t=" + std::to_string(*t_innermost->now_) + "us] ";
  line += msg;
  line += '\n';
  // One write per line, so lines from runs on other threads never interleave.
  std::fwrite(line.data(), 1, line.size(), stderr);
}

LogClock::LogClock(const std::int64_t& now) : now_(&now), outer_(t_innermost) {
  t_innermost = this;
}

LogClock::~LogClock() {
  // Unlink wherever this clock sits; the list is as deep as the nesting.
  LogClock** link = &t_innermost;
  while (*link != this) link = &(*link)->outer_;
  *link = outer_;
}

}  // namespace repli::util

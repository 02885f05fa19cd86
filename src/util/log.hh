// Minimal leveled logger. Each Simulator stamps the lines logged on its
// thread with its simulated time (LogClock). Logging defaults to Off so
// tests stay quiet; benches and examples turn it on per run.
#pragma once

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

namespace repli::util {

enum class LogLevel { Off = 0, Error = 1, Info = 2, Debug = 3 };

class Logger {
 public:
  static Logger& instance();

  /// Process-wide; set it once, before any run starts.
  void set_level(LogLevel level) { level_.store(level); }
  LogLevel level() const { return level_.load(); }

  /// Writes one line to stderr, prefixed with "[t=<now>us] " when the
  /// calling thread has a live LogClock.
  void write(LogLevel level, const std::string& msg);

 private:
  Logger() = default;
  std::atomic<LogLevel> level_{LogLevel::Off};
};

/// A simulated clock that stamps the calling thread's log lines. Clocks nest
/// per thread: lines carry the innermost clock still alive, and clocks may
/// be destroyed in any order. A clock must be destroyed on the thread that
/// made it.
class LogClock {
 public:
  explicit LogClock(const std::int64_t& now);
  ~LogClock();

  LogClock(const LogClock&) = delete;
  LogClock& operator=(const LogClock&) = delete;

 private:
  friend class Logger;
  const std::int64_t* now_;
  LogClock* outer_;  // the next clock out, toward the oldest
};

namespace detail {
inline void log_at(LogLevel level, const std::string& msg) {
  Logger::instance().write(level, msg);
}
}  // namespace detail

template <typename... Args>
void log_info(Args&&... args) {
  if (Logger::instance().level() < LogLevel::Info) return;
  std::ostringstream os;
  (os << ... << args);
  detail::log_at(LogLevel::Info, os.str());
}

template <typename... Args>
void log_debug(Args&&... args) {
  if (Logger::instance().level() < LogLevel::Debug) return;
  std::ostringstream os;
  (os << ... << args);
  detail::log_at(LogLevel::Debug, os.str());
}

template <typename... Args>
void log_error(Args&&... args) {
  if (Logger::instance().level() < LogLevel::Error) return;
  std::ostringstream os;
  (os << ... << args);
  detail::log_at(LogLevel::Error, os.str());
}

}  // namespace repli::util

// Tiny leveled logger. Writes are mutex-guarded (one write per line) and
// tagged with a per-thread id, so concurrent workers never interleave
// partial lines. Intended for experiment narration, not hot paths.
#pragma once

#include <sstream>
#include <string>

namespace hcrl::common {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level; messages below it are discarded.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Thread-safe: takes a process-wide mutex for the single write, and
/// prefixes the line with the calling thread's tag: `[LEVEL][tag] msg`.
void log_message(LogLevel level, const std::string& msg);

/// Set the calling thread's log tag (e.g. "runner-1"). The
/// default tag is "main" for the first thread to log and "t<N>" for later
/// ones, N assigned in first-log order.
void set_log_thread_tag(const std::string& tag);
/// The calling thread's current tag (assigns the default if unset).
std::string log_thread_tag();

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::kError); }

}  // namespace hcrl::common

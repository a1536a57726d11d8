#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>

namespace wimpi {
namespace {

std::atomic<int> g_threshold{-1};

LogLevel ThresholdFromEnv() {
  const char* env = std::getenv("WIMPI_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kInfo;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warning") == 0) return LogLevel::kWarning;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  return LogLevel::kInfo;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

}  // namespace

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << LevelName(level) << " " << (base ? base + 1 : file) << ":"
          << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= threshold() || level_ == LogLevel::kFatal) {
    // Assemble the full line first, then emit it as one write under a
    // process-wide mutex: messages from concurrent threads interleave as
    // whole lines, never character-by-character. (Leaked, never destroyed:
    // logging must work during static destruction too.)
    stream_ << "\n";
    const std::string msg = stream_.str();
    static std::mutex* mu = new std::mutex;
    std::lock_guard<std::mutex> lock(*mu);
    std::fputs(msg.c_str(), stderr);
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

LogLevel LogMessage::threshold() {
  // WIMPI_LOG_LEVEL is parsed exactly once (thread-safe magic static);
  // set_threshold overrides it for the rest of the process.
  static const int env_threshold = static_cast<int>(ThresholdFromEnv());
  const int t = g_threshold.load(std::memory_order_relaxed);
  return static_cast<LogLevel>(t < 0 ? env_threshold : t);
}

void LogMessage::set_threshold(LogLevel level) {
  g_threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

}  // namespace wimpi

#include "common/file_util.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace wimpi {

bool ValidateWritablePath(const std::string& path, std::string* error) {
  if (path.empty()) {
    if (error != nullptr) *error = "output path is empty";
    return false;
  }
  // Probe existence first so we know whether to clean up our probe file.
  std::FILE* probe = std::fopen(path.c_str(), "rb");
  const bool existed = probe != nullptr;
  if (probe != nullptr) std::fclose(probe);

  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot write " + path + ": " + std::strerror(errno);
    }
    return false;
  }
  std::fclose(f);
  if (!existed) std::remove(path.c_str());
  return true;
}

bool WriteTextFile(const std::string& path, const std::string& text,
                   std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path + ": " + std::strerror(errno);
    }
    return false;
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  // fclose flushes, so it must run (and be checked) even after a short
  // write. A successful call leaves errno as the failing one set it.
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    if (error != nullptr) {
      *error = "cannot write " + path + ": " + std::strerror(errno);
    }
    return false;
  }
  return true;
}

}  // namespace wimpi

#ifndef WIMPI_COMMON_FILE_UTIL_H_
#define WIMPI_COMMON_FILE_UTIL_H_

#include <string>

namespace wimpi {

// Checks up front that `path` can be opened for writing, so tools taking
// an output path fail before doing minutes of work, not after. Opens the
// file in append mode (existing contents untouched) and removes it again
// if this probe created it. Returns false and fills *error (with the
// failing path) when the path is unwritable — missing directory, no
// permission, path is a directory, ...
bool ValidateWritablePath(const std::string& path, std::string* error);

// Replaces the contents of `path` with `text`. Returns false and fills
// *error (when non-null, naming the path) when the file cannot be opened,
// written, or closed; a full disk often shows up only at the final fclose, which
// flushes the buffered bytes of a small file.
bool WriteTextFile(const std::string& path, const std::string& text,
                   std::string* error);

}  // namespace wimpi

#endif  // WIMPI_COMMON_FILE_UTIL_H_

#ifndef WIMPI_COMMON_STRINGS_H_
#define WIMPI_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace wimpi {

// SQL LIKE with '%' (any run) and '_' (any single char) wildcards, no
// escape support (TPC-H patterns never escape). The pattern is split at
// '%': the first and last pieces anchor at the ends of the value, and each
// piece between is found with a substring search (a '_'-aware scan only
// for pieces that contain '_').
bool LikeMatch(std::string_view value, std::string_view pattern);

inline bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

inline bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// Substring containment, the common "%word%" fast path.
bool Contains(std::string_view s, std::string_view needle);

// Splits on a single character; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

}  // namespace wimpi

#endif  // WIMPI_COMMON_STRINGS_H_

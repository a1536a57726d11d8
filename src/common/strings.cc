#include "common/strings.h"

namespace wimpi {

namespace {

// Whether segment `seg` (no '%'; '_' matches any byte) matches the first
// seg.size() bytes of `s`, which must be at least that long.
bool SegmentMatches(std::string_view s, std::string_view seg) {
  for (size_t i = 0; i < seg.size(); ++i) {
    if (seg[i] != '_' && seg[i] != s[i]) return false;
  }
  return true;
}

// Leftmost occurrence of segment `seg` in `s`, or npos. Segments without
// '_' are plain substring searches.
size_t FindSegment(std::string_view s, std::string_view seg) {
  if (seg.find('_') == std::string_view::npos) return s.find(seg);
  for (size_t at = 0; at + seg.size() <= s.size(); ++at) {
    if (SegmentMatches(s.substr(at, seg.size()), seg)) return at;
  }
  return std::string_view::npos;
}

}  // namespace

bool LikeMatch(std::string_view value, std::string_view pattern) {
  const size_t first = pattern.find('%');
  if (first == std::string_view::npos) {
    return value.size() == pattern.size() && SegmentMatches(value, pattern);
  }
  // The segment before the first '%' anchors at the start, the one after
  // the last '%' at the end; the ones between are found leftmost-first in
  // what lies between (the leftmost match leaves the most room for the
  // rest, so no backtracking is needed).
  const size_t last = pattern.rfind('%');
  const std::string_view head = pattern.substr(0, first);
  const std::string_view tail = pattern.substr(last + 1);
  if (value.size() < head.size() + tail.size() ||
      !SegmentMatches(value, head) ||
      !SegmentMatches(value.substr(value.size() - tail.size()), tail)) {
    return false;
  }
  std::string_view rest =
      value.substr(head.size(), value.size() - head.size() - tail.size());
  for (size_t p = first + 1; p < last;) {
    const size_t q = pattern.find('%', p);
    const std::string_view seg = pattern.substr(p, q - p);
    if (!seg.empty()) {
      const size_t at = FindSegment(rest, seg);
      if (at == std::string_view::npos) return false;
      rest.remove_prefix(at + seg.size());
    }
    p = q + 1;
  }
  return true;
}

bool Contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace wimpi

// The reference interpreter's own LIKE matcher, independent of the
// engine's (common/strings.h), so a bug in either shows up as a
// disagreement.
#include "reference.h"

namespace wimpi::tpch_ref {

// Greedy matcher: walks value and pattern together and, on a mismatch,
// backtracks to the last '%' seen, which then absorbs one more character.
bool RefLikeMatch(std::string_view value, std::string_view pattern) {
  size_t v = 0;
  size_t p = 0;
  size_t star_p = std::string_view::npos;  // position after last '%'
  size_t star_v = 0;                       // value position to resume from

  while (v < value.size()) {
    // A '%' in the pattern is a wildcard even where the value holds a '%'.
    if (p < pattern.size() && pattern[p] == '%') {
      star_p = ++p;
      star_v = v;
    } else if (p < pattern.size() &&
               (pattern[p] == '_' || pattern[p] == value[v])) {
      ++p;
      ++v;
    } else if (star_p != std::string_view::npos) {
      p = star_p;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace wimpi::tpch_ref

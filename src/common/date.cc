#include "common/date.h"

#include <cstdio>

#include "common/logging.h"

namespace wimpi {
namespace {

bool IsLeap(int32_t y) {
  return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

int32_t DaysInMonth(int32_t y, int32_t m) {
  static constexpr int32_t kDays[] = {31, 28, 31, 30, 31, 30,
                                      31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeap(y)) return 29;
  return kDays[m - 1];
}

}  // namespace

DateValue DateFromCivil(int32_t y, int32_t m, int32_t d) {
  // days_from_civil, Howard Hinnant, http://howardhinnant.github.io/date_algorithms.html
  y -= m <= 2;
  const int32_t era = (y >= 0 ? y : y - 399) / 400;
  const uint32_t yoe = static_cast<uint32_t>(y - era * 400);           // [0, 399]
  const uint32_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1; // [0, 365]
  const uint32_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;          // [0, 146096]
  return era * 146097 + static_cast<int32_t>(doe) - 719468;
}

CivilDate CivilFromDate(DateValue z) {
  z += 719468;
  const int32_t era = (z >= 0 ? z : z - 146096) / 146097;
  const uint32_t doe = static_cast<uint32_t>(z - era * 146097);
  const uint32_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int32_t y = static_cast<int32_t>(yoe) + era * 400;
  const uint32_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const uint32_t mp = (5 * doy + 2) / 153;
  const uint32_t d = doy - (153 * mp + 2) / 5 + 1;
  const uint32_t m = mp + (mp < 10 ? 3 : -9);
  return CivilDate{y + (m <= 2), static_cast<int32_t>(m),
                   static_cast<int32_t>(d)};
}

int32_t DateYear(DateValue days) { return CivilFromDate(days).year; }

DateValue DateAddMonths(DateValue days, int32_t months) {
  CivilDate c = CivilFromDate(days);
  int32_t total = c.year * 12 + (c.month - 1) + months;
  int32_t y = total / 12;
  int32_t m = total % 12;
  if (m < 0) {
    m += 12;
    y -= 1;
  }
  m += 1;
  int32_t d = c.day;
  const int32_t dim = DaysInMonth(y, m);
  if (d > dim) d = dim;
  return DateFromCivil(y, m, d);
}

bool TryParseDate(std::string_view s, DateValue* out) {
  if (s.size() != 10 || s[4] != '-' || s[7] != '-') return false;
  int32_t parts[3] = {0, 0, 0};
  const int pos[3] = {0, 5, 8}, len[3] = {4, 2, 2};
  for (int p = 0; p < 3; ++p) {
    for (int i = pos[p]; i < pos[p] + len[p]; ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      parts[p] = parts[p] * 10 + (s[i] - '0');
    }
  }
  const auto [year, month, day] = parts;
  if (month < 1 || month > 12 || day < 1 || day > DaysInMonth(year, month)) {
    return false;
  }
  *out = DateFromCivil(year, month, day);
  return true;
}

DateValue ParseDate(std::string_view s) {
  DateValue d = 0;
  WIMPI_CHECK(TryParseDate(s, &d)) << "bad date literal: " << std::string(s);
  return d;
}

std::string FormatDate(DateValue days) {
  const CivilDate c = CivilFromDate(days);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

}  // namespace wimpi

#ifndef WIMPI_COMMON_DATE_H_
#define WIMPI_COMMON_DATE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace wimpi {

// Dates are stored as int32 days since the civil epoch 1970-01-01
// (proleptic Gregorian). TPC-H only needs 1992..1998 but the conversions
// are valid over a wide range.
using DateValue = int32_t;

struct CivilDate {
  int32_t year = 1970;
  int32_t month = 1;  // 1..12
  int32_t day = 1;    // 1..31
};

// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
DateValue DateFromCivil(int32_t year, int32_t month, int32_t day);

// Inverse of DateFromCivil.
CivilDate CivilFromDate(DateValue days);

// Extracts the year, as in SQL EXTRACT(YEAR FROM d).
int32_t DateYear(DateValue days);

// Adds a number of months, clamping the day-of-month (SQL interval
// semantics: 1994-01-31 + 1 month = 1994-02-28).
DateValue DateAddMonths(DateValue days, int32_t months);

// Adds days (trivial, provided for symmetry with DateAddMonths).
inline DateValue DateAddDays(DateValue days, int32_t delta) {
  return days + delta;
}

// Parses "YYYY-MM-DD" with a valid month and day into *out. Returns false
// (leaving *out alone) on anything else; for data read from files.
bool TryParseDate(std::string_view s, DateValue* out);

// TryParseDate that terminates on malformed input (dates in this codebase
// are compile-time query constants).
DateValue ParseDate(std::string_view s);

// Formats as "YYYY-MM-DD".
std::string FormatDate(DateValue days);

}  // namespace wimpi

#endif  // WIMPI_COMMON_DATE_H_

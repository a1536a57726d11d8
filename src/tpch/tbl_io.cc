#include "tpch/tbl_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/date.h"
#include "common/strings.h"

namespace wimpi::tpch {

Result<int64_t> WriteTbl(const storage::Table& table,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  char buf[64];
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.schema().num_fields(); ++c) {
      const storage::Column& col = table.column(c);
      switch (col.type()) {
        case storage::DataType::kInt32:
          std::snprintf(buf, sizeof(buf), "%d", col.I32Data()[r]);
          out << buf;
          break;
        case storage::DataType::kInt64:
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(col.I64Data()[r]));
          out << buf;
          break;
        case storage::DataType::kFloat64:
          std::snprintf(buf, sizeof(buf), "%.2f", col.F64Data()[r]);
          out << buf;
          break;
        case storage::DataType::kDate:
          out << FormatDate(col.I32Data()[r]);
          break;
        case storage::DataType::kString:
          out << col.StringAt(r);
          break;
      }
      out << '|';
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::Internal("write failed for " + path);
  return table.num_rows();
}

namespace {

// Parses all of `f` as a T in range: an optional '-', no '+', spaces or
// trailing bytes, and for floating point a finite value.
template <typename T>
bool ParseNumber(std::string_view f, T* out) {
  const char* end = f.data() + f.size();
  const auto [ptr, ec] = std::from_chars(f.data(), end, *out);
  if (ec != std::errc() || ptr != end || f.empty()) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

}  // namespace

Result<int64_t> ReadTbl(const std::string& path, storage::Table* table) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  const storage::Schema& schema = table->schema();
  const int n_cols = schema.num_fields();
  // One row's numeric values, parsed before anything is appended so a
  // row either loads whole or not at all.
  std::vector<int64_t> ints(n_cols);
  std::vector<double> floats(n_cols);
  std::string line;
  int64_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto row = [&] { return path + ": row " + std::to_string(rows + 1); };
    // dbgen terminates each row with '|', so drop the trailing empty piece.
    std::vector<std::string> fields = Split(line, '|');
    if (!fields.empty() && fields.back().empty()) fields.pop_back();
    if (static_cast<int>(fields.size()) != n_cols) {
      return Status::InvalidArgument(
          row() + " has " + std::to_string(fields.size()) +
          " fields, expected " + std::to_string(n_cols));
    }
    for (int c = 0; c < n_cols; ++c) {
      const std::string& f = fields[c];
      bool ok = true;
      switch (schema.field(c).type) {
        case storage::DataType::kInt32: {
          int32_t v = 0;
          ok = ParseNumber(f, &v);
          ints[c] = v;
          break;
        }
        case storage::DataType::kInt64:
          ok = ParseNumber(f, &ints[c]);
          break;
        case storage::DataType::kFloat64:
          ok = ParseNumber(f, &floats[c]);
          break;
        case storage::DataType::kDate: {
          DateValue d = 0;
          ok = TryParseDate(f, &d);
          ints[c] = d;
          break;
        }
        case storage::DataType::kString:
          break;
      }
      if (!ok) {
        return Status::InvalidArgument(
            row() + " column " + schema.field(c).name + ": bad " +
            storage::TypeName(schema.field(c).type) + " value '" + f +
            "'");
      }
    }
    for (int c = 0; c < n_cols; ++c) {
      storage::Column& col = table->column(c);
      switch (col.type()) {
        case storage::DataType::kInt32:
        case storage::DataType::kDate:
          col.AppendInt32(static_cast<int32_t>(ints[c]));
          break;
        case storage::DataType::kInt64:
          col.AppendInt64(ints[c]);
          break;
        case storage::DataType::kFloat64:
          col.AppendFloat64(floats[c]);
          break;
        case storage::DataType::kString:
          col.AppendString(fields[c]);
          break;
      }
    }
    ++rows;
  }
  return rows;
}

}  // namespace wimpi::tpch

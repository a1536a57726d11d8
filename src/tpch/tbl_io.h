#ifndef WIMPI_TPCH_TBL_IO_H_
#define WIMPI_TPCH_TBL_IO_H_

// Interop with the official TPC-H dbgen '.tbl' format ('|'-separated, one
// trailing '|', dates as YYYY-MM-DD). WriteTbl lets our deterministic
// generator feed other systems; ReadTbl loads data produced by the real
// dbgen into a table with a given schema, so results can be cross-checked
// against a reference DBMS.

#include <string>

#include "common/status.h"
#include "storage/table.h"

namespace wimpi::tpch {

// Writes `table` to `path` in .tbl format. Returns the number of rows
// written or an error.
Result<int64_t> WriteTbl(const storage::Table& table, const std::string& path);

// Appends rows parsed from the .tbl file at `path` into `table` (whose
// schema defines the expected column count and types). Call FinishLoad()
// afterwards. Returns rows read, or InvalidArgument naming the first row
// and column that fails to parse (wrong field count, a number with stray
// bytes or out of range, a malformed date). Each row is validated whole
// before it is appended, so rows before the bad one stay loaded and the
// columns never end up with different lengths.
Result<int64_t> ReadTbl(const std::string& path, storage::Table* table);

}  // namespace wimpi::tpch

#endif  // WIMPI_TPCH_TBL_IO_H_

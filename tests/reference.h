#ifndef WIMPI_TESTS_REFERENCE_H_
#define WIMPI_TESTS_REFERENCE_H_

// Independent row-at-a-time reference implementations of all 22 TPC-H
// queries, used to validate the vectorized engine. They share nothing with
// the engine except the loaded tables: plain loops, std::map groupings and
// std::sort, following the SQL text directly (including the correlated
// subqueries, evaluated naively).

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "engine/database.h"

namespace wimpi::tpch_ref {

using RefValue = std::variant<int64_t, double, std::string>;
using RefRow = std::vector<RefValue>;
using RefResult = std::vector<RefRow>;

// Runs reference query `q` (1..22).
RefResult RunReference(int q, const engine::Database& db);

// SQL LIKE ('%' any run, '_' any one character, no escapes), implemented
// separately from the engine's LikeMatch.
bool RefLikeMatch(std::string_view value, std::string_view pattern);

}  // namespace wimpi::tpch_ref

#endif  // WIMPI_TESTS_REFERENCE_H_

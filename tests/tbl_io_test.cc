#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/date.h"
#include "common/rng.h"

#include "gtest/gtest.h"
#include "tpch/dbgen.h"
#include "tpch/tbl_io.h"

namespace wimpi::tpch {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(TblIoTest, RoundTripLineitem) {
  GenOptions opts;
  opts.scale_factor = 0.002;
  std::shared_ptr<storage::Table> orders, lineitem;
  GenerateOrdersAndLineitem(opts, &orders, &lineitem);

  const std::string path = TempPath("wimpi_lineitem_test.tbl");
  auto written = WriteTbl(*lineitem, path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, lineitem->num_rows());

  storage::Table loaded("lineitem", lineitem->schema());
  auto read = ReadTbl(path, &loaded);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  loaded.FinishLoad();
  ASSERT_EQ(loaded.num_rows(), lineitem->num_rows());
  for (int64_t i = 0; i < loaded.num_rows(); i += 17) {
    EXPECT_EQ(loaded.column("l_orderkey").I64Data()[i],
              lineitem->column("l_orderkey").I64Data()[i]);
    EXPECT_EQ(loaded.column("l_shipdate").I32Data()[i],
              lineitem->column("l_shipdate").I32Data()[i]);
    EXPECT_NEAR(loaded.column("l_extendedprice").F64Data()[i],
                lineitem->column("l_extendedprice").F64Data()[i], 0.005);
    EXPECT_EQ(loaded.column("l_shipmode").StringAt(i),
              lineitem->column("l_shipmode").StringAt(i));
  }
  std::filesystem::remove(path);
}

TEST(TblIoTest, ReadRejectsWrongArity) {
  const std::string path = TempPath("wimpi_bad.tbl");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1|2|\n", f);
    std::fclose(f);
  }
  storage::Schema s({{"a", storage::DataType::kInt32}});
  storage::Table t("t", s);
  const auto r = ReadTbl(path, &t);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

void WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Every column of `t` has the same length (FinishLoad would CHECK-fail
// otherwise).
bool ColumnsEven(const storage::Table& t) {
  for (int c = 1; c < t.schema().num_fields(); ++c) {
    if (t.column(c).size() != t.column(0).size()) return false;
  }
  return true;
}

storage::Schema MixedSchema() {
  return storage::Schema({{"k", storage::DataType::kInt64},
                          {"n", storage::DataType::kInt32},
                          {"price", storage::DataType::kFloat64},
                          {"day", storage::DataType::kDate},
                          {"name", storage::DataType::kString}});
}

TEST(TblIoTest, BadFieldsAreInvalidArgumentNamingRowAndColumn) {
  struct Case {
    const char* row2;
    const char* column;
  };
  const Case cases[] = {
      {"2|7|1.50|1996-13-01|b|", "day"},    // month 13
      {"2|7|1.50|1996-02-30|b|", "day"},    // no such day
      {"2|7|1.50|96-01-01|b|", "day"},      // wrong shape
      {"2|x7|1.50|1996-01-01|b|", "n"},     // not a number
      {"2|7|1.5x|1996-01-01|b|", "price"},  // trailing bytes
      {"2|7||1996-01-01|b|", "price"},      // empty
      {"2|7|nan|1996-01-01|b|", "price"},   // not finite
      {"2|+7|1.50|1996-01-01|b|", "n"},     // explicit '+'
      {"2|99999999999|1.50|1996-01-01|b|", "n"},  // out of int32 range
      {"two|7|1.50|1996-01-01|b|", "k"},
  };
  const std::string path = TempPath("wimpi_bad_fields.tbl");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.row2);
    WriteFile(path, std::string("1|3|0.25|1995-06-17|a|\n") + c.row2 + "\n");
    storage::Table t("t", MixedSchema());
    const auto r = ReadTbl(path, &t);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("row 2"), std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find(std::string("column ") + c.column),
              std::string::npos)
        << r.status().ToString();
    // The good first row is loaded; nothing of the bad one is.
    EXPECT_TRUE(ColumnsEven(t));
    EXPECT_EQ(t.column(0).size(), 1);
  }
  std::filesystem::remove(path);
}

TEST(TblIoTest, ParsesEveryType) {
  const std::string path = TempPath("wimpi_good_fields.tbl");
  WriteFile(path, "-5|-7|-1.25|1992-02-29|x y|\n");
  storage::Table t("t", MixedSchema());
  const auto r = ReadTbl(path, &t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  t.FinishLoad();
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.column(0).I64Data()[0], -5);
  EXPECT_EQ(t.column(1).I32Data()[0], -7);
  EXPECT_DOUBLE_EQ(t.column(2).F64Data()[0], -1.25);
  EXPECT_EQ(t.column(3).I32Data()[0], DateFromCivil(1992, 2, 29));
  EXPECT_EQ(t.column(4).StringAt(0), "x y");
  std::filesystem::remove(path);
}

// Seed-driven corruption of a real .tbl file: truncation, byte flips, and
// dropped or extra '|'. Every variant must come back as a Status (never
// abort) and leave the columns even; a variant that still parses loads
// one row per non-empty line.
TEST(TblIoTest, MutatedFilesReturnStatusAndNeverAbort) {
  GenOptions opts;
  opts.scale_factor = 0.0001;
  std::shared_ptr<storage::Table> orders, lineitem;
  GenerateOrdersAndLineitem(opts, &orders, &lineitem);
  const std::string path = TempPath("wimpi_mutated.tbl");
  ASSERT_TRUE(WriteTbl(*lineitem, path).ok());
  std::string clean = ReadFile(path);
  // The first 40 rows keep each read quick.
  size_t cut = 0;
  for (int i = 0; i < 40 && cut != std::string::npos; ++i) {
    cut = clean.find('\n', cut + 1);
  }
  clean.resize(cut + 1);

  int rejected = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    std::string text = clean;
    const int edits = static_cast<int>(rng.Uniform(1, 3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const auto at = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(text.size()) - 1));
      switch (rng.Uniform(0, 3)) {
        case 0:  // truncate
          text.resize(at);
          break;
        case 1:  // flip a byte
          text[at] = static_cast<char>(rng.Uniform(1, 255));
          break;
        case 2: {  // drop a '|'
          const size_t bar = text.find('|', at);
          if (bar != std::string::npos) text.erase(bar, 1);
          break;
        }
        default:  // add a '|'
          text.insert(at, 1, '|');
          break;
      }
    }
    WriteFile(path, text);
    storage::Table t("lineitem", lineitem->schema());
    const auto r = ReadTbl(path, &t);
    ASSERT_TRUE(ColumnsEven(t)) << "seed " << seed;
    if (r.ok()) {
      EXPECT_EQ(*r, t.column(0).size()) << "seed " << seed;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << "seed " << seed << ": " << r.status().ToString();
      ++rejected;
    }
  }
  // Most corruptions are caught, not loaded.
  EXPECT_GT(rejected, 150);
  std::filesystem::remove(path);
}

TEST(TblIoTest, MissingFileIsNotFound) {
  storage::Schema s({{"a", storage::DataType::kInt32}});
  storage::Table t("t", s);
  const auto r = ReadTbl("/nonexistent/nope.tbl", &t);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace wimpi::tpch

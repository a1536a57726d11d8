#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "common/cli.h"
#include "common/date.h"
#include "common/decimal.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "gtest/gtest.h"
#include "reference.h"

namespace wimpi {
namespace {

// ---------- dates ----------

TEST(DateTest, KnownAnchors) {
  EXPECT_EQ(DateFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DateFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DateFromCivil(1969, 12, 31), -1);
  EXPECT_EQ(FormatDate(ParseDate("1992-01-01")), "1992-01-01");
  EXPECT_EQ(FormatDate(ParseDate("1998-12-31")), "1998-12-31");
}

TEST(DateTest, RoundTripProperty) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto d = static_cast<DateValue>(rng.Uniform(-200000, 200000));
    const CivilDate c = CivilFromDate(d);
    EXPECT_EQ(DateFromCivil(c.year, c.month, c.day), d);
    EXPECT_GE(c.month, 1);
    EXPECT_LE(c.month, 12);
    EXPECT_GE(c.day, 1);
    EXPECT_LE(c.day, 31);
  }
}

TEST(DateTest, ParseFormatRoundTrip) {
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const auto d = static_cast<DateValue>(rng.Uniform(0, 20000));
    EXPECT_EQ(ParseDate(FormatDate(d)), d);
  }
}

TEST(DateTest, LeapYears) {
  EXPECT_EQ(DateFromCivil(2000, 3, 1) - DateFromCivil(2000, 2, 1), 29);
  EXPECT_EQ(DateFromCivil(1900, 3, 1) - DateFromCivil(1900, 2, 1), 28);
  EXPECT_EQ(DateFromCivil(1996, 3, 1) - DateFromCivil(1996, 2, 1), 29);
}

TEST(DateTest, AddMonthsClampsDay) {
  EXPECT_EQ(FormatDate(DateAddMonths(ParseDate("1994-01-31"), 1)),
            "1994-02-28");
  EXPECT_EQ(FormatDate(DateAddMonths(ParseDate("1996-01-31"), 1)),
            "1996-02-29");
  EXPECT_EQ(FormatDate(DateAddMonths(ParseDate("1994-03-15"), 12)),
            "1995-03-15");
  EXPECT_EQ(FormatDate(DateAddMonths(ParseDate("1994-03-15"), -3)),
            "1993-12-15");
}

TEST(DateTest, YearExtraction) {
  EXPECT_EQ(DateYear(ParseDate("1995-06-17")), 1995);
  EXPECT_EQ(DateYear(ParseDate("1992-01-01")), 1992);
}

// ---------- LIKE ----------

struct LikeCase {
  const char* value;
  const char* pattern;
  bool expect;
};

// gtest names each case after its printed parameter. Without this overload it
// hex-dumps the struct — two string pointers and padding — so the case names
// changed from one process to the next.
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.value << "' LIKE '" << c.pattern << "' = "
      << (c.expect ? "true" : "false");
}

class LikeTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.value, c.pattern), c.expect)
      << c.value << " LIKE " << c.pattern;
  EXPECT_EQ(tpch_ref::RefLikeMatch(c.value, c.pattern), c.expect)
      << "reference: " << c.value << " LIKE " << c.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LikeTest,
    ::testing::Values(
        LikeCase{"hello", "hello", true},
        LikeCase{"hello", "h%", true},
        LikeCase{"hello", "%o", true},
        LikeCase{"hello", "%ell%", true},
        LikeCase{"hello", "h_llo", true},
        LikeCase{"hello", "h__lo", true},
        LikeCase{"hello", "", false},
        LikeCase{"", "%", true},
        LikeCase{"", "", true},
        LikeCase{"hello", "%x%", false},
        LikeCase{"MEDIUM POLISHED TIN", "MEDIUM POLISHED%", true},
        LikeCase{"PROMO BRUSHED STEEL", "PROMO%", true},
        LikeCase{"a special deal with requests", "%special%requests%", true},
        LikeCase{"requests special", "%special%requests%", false},
        LikeCase{"special requests", "%special%requests%", true},
        LikeCase{"abc", "%%", true},
        LikeCase{"abc", "a%b%c", true},
        LikeCase{"aXbXc", "a%b%c", true},
        LikeCase{"ab", "a_b", false},
        LikeCase{"forest green", "forest%", true},
        LikeCase{"old forest", "forest%", false},
        // Empty and adjacent '%', '_' before '%', a pattern longer than the
        // value, overlapping segments, '_' inside middle and end segments,
        // and wildcard characters as ordinary bytes of the value.
        LikeCase{"", "%%", true},
        LikeCase{"", "_%", false},
        LikeCase{"a", "_%", true},
        LikeCase{"abc", "_%", true},
        LikeCase{"ab", "abc", false},
        LikeCase{"ab", "a%bc", false},
        LikeCase{"ab", "%abc%", false},
        LikeCase{"ab", "___", false},
        LikeCase{"aaa", "%aa%aa%", false},
        LikeCase{"aaaa", "%aa%aa%", true},
        LikeCase{"aaa", "%aa%a%", true},
        LikeCase{"abab", "%ab%ab", true},
        LikeCase{"aba", "%ab%ab", false},
        LikeCase{"abcabc", "a%c", true},
        LikeCase{"abcab", "a%c", false},
        LikeCase{"xyz", "x_z%", true},
        LikeCase{"xyzq", "%y_q", true},
        LikeCase{"xaxbxc", "%a%_c", true},
        LikeCase{"acb", "%a%_c", false},
        LikeCase{"a%b", "a%b", true},
        LikeCase{"%x", "%", true},
        LikeCase{"_", "_", true}));

TEST(StringsTest, Helpers) {
  EXPECT_TRUE(StartsWith("PROMO PLATED", "PROMO"));
  EXPECT_FALSE(StartsWith("PR", "PROMO"));
  EXPECT_TRUE(EndsWith("ECONOMY BRASS", "BRASS"));
  EXPECT_TRUE(Contains("dark green linen", "green"));
  EXPECT_FALSE(Contains("gree", "green"));
  EXPECT_EQ(Split("a|b||c", '|'),
            (std::vector<std::string>{"a", "b", "", "c"}));
}

// ---------- RNG ----------

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformBoundsAndCoverage) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.Uniform(3, 10);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ---------- hash ----------

TEST(HashTest, IntMixSpreadsLowBits) {
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 1024; ++i) buckets.insert(HashInt64(i) & 1023);
  EXPECT_GT(buckets.size(), 600u);  // near-uniform spread
}

TEST(HashTest, StringHashDiffers) {
  EXPECT_NE(HashString("AIR"), HashString("AIR REG"));
  EXPECT_EQ(HashString("MAIL"), HashString("MAIL"));
}

// ---------- money ----------

TEST(MoneyTest, Arithmetic) {
  const Money a = Money::FromCents(12345);
  EXPECT_EQ(a.ToString(), "123.45");
  EXPECT_EQ((a * 2).cents(), 24690);
  EXPECT_EQ((a + Money::FromUnits(1)).cents(), 12445);
  EXPECT_EQ((Money::FromCents(-505)).ToString(), "-5.05");
  EXPECT_NEAR(a.ToDouble(), 123.45, 1e-12);
}

// ---------- table printer ----------

TEST(TablePrinterTest, AlignsAndFormats) {
  TablePrinter t({"a", "bb"});
  t.AddRow({"1", "2"});
  t.AddSeparator();
  t.AddRow({"333", "4"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
  EXPECT_EQ(TablePrinter::Fixed(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Multiplier(123.4), "123x");
  EXPECT_EQ(TablePrinter::Multiplier(12.34), "12.3x");
  EXPECT_EQ(TablePrinter::Multiplier(1.234), "1.23x");
}

// ---------- command line ----------

TEST(CommandLineTest, ParsesFlagsAndPositional) {
  // Note: a bare flag followed by a non-flag token consumes it as a value
  // ("--nodes 12"), so trailing bool flags must use "--flag=true" or come
  // last.
  const char* argv[] = {"prog", "input.txt", "--sf=0.5", "--nodes", "12",
                        "--verbose"};
  CommandLine cli(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.GetDouble("sf", 1.0), 0.5);
  EXPECT_EQ(cli.GetInt("nodes", 0), 12);
  EXPECT_TRUE(cli.GetBool("verbose", false));
  EXPECT_FALSE(cli.GetBool("quiet", false));
  EXPECT_EQ(cli.GetString("missing", "d"), "d");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
}

TEST(CommandLineTest, ParsesValidNumbersAndBooleans) {
  const char* argv[] = {"prog",         "--seeds=-200", "--tol=1e-6",
                        "--sf=0.01",    "--big=9007199254740993",
                        "--a=false",    "--b=no",       "--c=0",
                        "--d=yes",      "--e=1"};
  CommandLine cli(10, const_cast<char**>(argv));
  EXPECT_EQ(cli.GetInt("seeds", 0), -200);
  EXPECT_DOUBLE_EQ(cli.GetDouble("tol", 0), 1e-6);
  EXPECT_DOUBLE_EQ(cli.GetDouble("sf", 0), 0.01);
  EXPECT_EQ(cli.GetInt("big", 0), int64_t{9007199254740993});
  EXPECT_FALSE(cli.GetBool("a", true));
  EXPECT_FALSE(cli.GetBool("b", true));
  EXPECT_FALSE(cli.GetBool("c", true));
  EXPECT_TRUE(cli.GetBool("d", false));
  EXPECT_TRUE(cli.GetBool("e", false));
}

// A malformed value used to read as its numeric prefix (or 0); now it is a
// usage error: "invalid value for --<name>: '<text>'" and exit code 2.
TEST(CommandLineTest, MalformedValuesExitTwo) {
  const auto parse = [](const char* flag) {
    const char* argv[] = {"prog", flag};
    return CommandLine(2, const_cast<char**>(argv));
  };
  const auto exits2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse("--seeds=2OO").GetInt("seeds", 0), exits2,
              "invalid value for --seeds: '2OO'");
  EXPECT_EXIT(parse("--min-slow=two").GetInt("min-slow", 1), exits2,
              "invalid value for --min-slow: 'two'");
  EXPECT_EXIT(parse("--n=").GetInt("n", 1), exits2, "--n: ''");
  EXPECT_EXIT(parse("--n=1.5").GetInt("n", 1), exits2, "--n: '1.5'");
  EXPECT_EXIT(parse("--n=99999999999999999999").GetInt("n", 1), exits2,
              "--n: '99999999999999999999'");
  EXPECT_EXIT(parse("--physical-sf=0.O2").GetDouble("physical-sf", 1),
              exits2, "invalid value for --physical-sf: '0.O2'");
  EXPECT_EXIT(parse("--rel-tol=2%").GetDouble("rel-tol", 0), exits2,
              "--rel-tol: '2%'");
  EXPECT_EXIT(parse("--x=1e999").GetDouble("x", 0), exits2, "--x: '1e999'");
  EXPECT_EXIT(parse("--x=nan").GetDouble("x", 0), exits2, "--x: 'nan'");
  EXPECT_EXIT(parse("--native=ture").GetBool("native", false), exits2,
              "invalid value for --native: 'ture'");
}

// ---------- whole-file writes ----------

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

TEST(FileUtilTest, WriteTextFileRoundTripsAndTruncates) {
  const std::string path = TempPath("wimpi_write_text_file.txt");
  std::string error;
  ASSERT_TRUE(WriteTextFile(path, "first line\nsecond line\n", &error))
      << error;
  ASSERT_TRUE(WriteTextFile(path, "short\n", &error)) << error;
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "short\n");
  std::remove(path.c_str());
}

TEST(FileUtilTest, WriteTextFileReportsMissingDirectory) {
  const std::string path = TempPath("wimpi_no_such_dir/out.txt");
  std::string error;
  EXPECT_FALSE(WriteTextFile(path, "x", &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(FileUtilTest, WriteTextFileReportsFullDisk) {
  // /dev/full accepts open and buffered writes; ENOSPC surfaces only when
  // the bytes are flushed, i.e. at fclose for a small file.
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  std::string error;
  EXPECT_FALSE(WriteTextFile("/dev/full", "some bytes\n", &error));
  EXPECT_NE(error.find("/dev/full"), std::string::npos) << error;
}

// ---------- json ----------

TEST(JsonTest, Escape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonTest, NumberRoundTripsShortest) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  // Shortest representation that parses back exactly.
  for (const double d : {0.1, 1.0 / 3.0, 12345.6789, 1e-9, 2.5e20}) {
    EXPECT_DOUBLE_EQ(std::stod(JsonNumber(d)), d);
  }
  EXPECT_EQ(JsonNumber(0.1), "0.1");  // not 0.10000000000000001
}

TEST(JsonTest, WriterProducesValidNesting) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("q\"1\"");
  w.Key("n").Int(42);
  w.Key("x").Double(0.5);
  w.Key("ok").Bool(true);
  w.Key("none").Null();
  w.Key("arr").BeginArray();
  w.Int(1);
  w.Int(2);
  w.EndArray();
  w.Key("obj").BeginObject();
  w.Key("k").String("v");
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"q\\\"1\\\"\",\"n\":42,\"x\":0.5,\"ok\":true,"
            "\"none\":null,\"arr\":[1,2],\"obj\":{\"k\":\"v\"}}");
}

TEST(JsonTest, ParseRoundTrip) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("a\nb");
  w.Key("d").Double(0.25);
  w.Key("list").BeginArray();
  w.Double(1);
  w.Double(2.5);
  w.EndArray();
  w.EndObject();

  std::string error;
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &v, &error)) << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.GetString("s", ""), "a\nb");
  EXPECT_DOUBLE_EQ(v.GetDouble("d", -1), 0.25);
  const JsonValue* list = v.Find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  ASSERT_EQ(list->AsArray().size(), 2u);
  EXPECT_DOUBLE_EQ(list->AsArray()[1].AsDouble(), 2.5);
}

TEST(JsonTest, ParseRejectsMalformed) {
  std::string error;
  JsonValue v;
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}", &v, &error));
  EXPECT_FALSE(JsonValue::Parse("[1,2", &v, &error));
  EXPECT_FALSE(JsonValue::Parse("", &v, &error));
  EXPECT_FALSE(JsonValue::Parse("{} trailing", &v, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, ParseUnicodeEscapes) {
  std::string error;
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse("\"a\\u00e9b\"", &v, &error)) << error;
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "a\xc3\xa9\x62");  // e-acute as UTF-8
}

}  // namespace
}  // namespace wimpi

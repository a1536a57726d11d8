// Seed-driven mutation tests for the two parsers of external bytes:
// JsonValue::Parse (every rendered trace and bench artifact goes through
// it) and ExpositionFormat::Parse. Each mutation class is built so the
// mutated input is invalid — truncation, a byte flipped to a control byte,
// deep nesting, out-of-range numbers, bad escapes — and every mutant must
// return false with an error, never abort. Random byte XORs, which may
// leave the input valid, must only never crash. ctest runs this binary,
// so the AddressSanitizer pass (scripts/check_asan.sh) covers it too.
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "obs/export/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wimpi {
namespace {

constexpr int kSeeds = 300;
// The one number every JSON corpus contains several times, so the
// huge-number mutation knows where a number token sits.
constexpr const char* kMarkerNumber = "424242";

// A rendered trace plus a nested artifact-like document: strings with
// every escape the writer emits, negative and exponent numbers, literals,
// empty containers. No trailing whitespace, so every strict prefix is
// invalid.
std::string JsonCorpus() {
  std::vector<obs::TraceEvent> events(3);
  events[0].name = "Q1 \"quoted\" \\ tab\t nl\n \x01";
  events[0].ts_us = 424242;
  events[0].dur_us = 17;
  events[0].trace_id = 1;
  events[0].span_id = 1;
  events[1].name = "morsel";
  events[1].category = "flight.morsel";
  events[1].ts_us = 424242;
  events[1].span_id = 2;
  events[1].parent_id = 1;
  events[1].args_json = "{\"morsel\":3,\"rows\":424242}";
  events[2].phase = 's';
  events[2].flow_id = 9;
  events[2].pid = obs::kTracePidCluster;
  const std::string trace = obs::TraceEventsToJson(events);

  JsonWriter w;
  w.BeginObject()
      .Key("schema_version").Int(2)
      .Key("trace").Raw(trace)
      .Key("rows").BeginObject()
      .Key("wimpi-24").BeginObject()
      .Key("Q1").Double(-1.25e-3)
      .Key("Q6").Int(424242)
      .EndObject()
      .EndObject()
      .Key("flags").BeginArray().Bool(true).Bool(false).Null()
      .BeginArray().EndArray().BeginObject().EndObject().EndArray()
      .EndObject();
  return w.str();
}

obs::RegistrySnapshot ExpositionSnapshot() {
  obs::RegistrySnapshot snap;
  snap.counters["service.queries"] = 42;
  snap.gauges["pool.queue_depth"] = 3.5;
  snap.gauges["slo.burn_rate"] = -2e-7;
  obs::HistogramSnapshot h;
  h.bounds = {0.5, 10, 1e6};
  h.bucket_counts = {1, 2, 3, 4};
  h.count = 10;
  h.sum = 123.25;
  snap.histograms["service.latency_us"] = h;
  snap.infos["host.info"] = {{"cpu", "Xeon \"E5\" \\ {x} a,b"},
                             {"threads", "4"}};
  return snap;
}

bool ParseJson(const std::string& text, std::string* error) {
  JsonValue doc;
  return JsonValue::Parse(text, &doc, error);
}

bool ParseExposition(const std::string& text, std::string* error) {
  std::vector<obs::ExpositionSample> samples;
  return obs::ExpositionFormat::Parse(text, &samples, error);
}

// A byte no JSON or exposition token may hold outside a label value: an
// ASCII control character that is not whitespace.
char ControlByte(std::mt19937_64& rng) {
  static const std::string kBytes = [] {
    std::string b;
    for (int c = 0; c < 0x20; ++c) {
      if (c != '\t' && c != '\n' && c != '\r' && c != ' ') {
        b += static_cast<char>(c);
      }
    }
    return b;
  }();
  return kBytes[rng() % kBytes.size()];
}

size_t Pick(std::mt19937_64& rng, size_t n) { return rng() % n; }

const char* const kBadJsonEscapes[] = {"\\x", "\\'", "\\u12G4", "\\uZZZZ",
                                       "\\U0041", "\\u00\"", "\\0", "\\a"};
const char* const kBadLabelEscapes[] = {"\\x", "\\t", "\\u0041", "\\0",
                                        "\\'", "\\r"};

std::string HugeNumber(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      return "1e" + std::to_string(309 + rng() % 100000);
    case 1:
      return "-" + std::string(310 + rng() % 1000, '9');
    default:
      return std::string(400, '7') + ".5e10";
  }
}

// Byte offsets just inside a string literal of `json` (after an opening
// quote or a complete character, never inside an escape sequence).
std::vector<size_t> StringInteriorOffsets(const std::string& json) {
  std::vector<size_t> out;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (!in_string) {
      if (c == '"') {
        in_string = true;
        out.push_back(i + 1);
      }
      continue;
    }
    if (c == '\\') {
      i += json[i + 1] == 'u' ? 5 : 1;
    } else if (c == '"') {
      in_string = false;
      continue;
    }
    out.push_back(i + 1);
  }
  return out;
}

std::vector<size_t> Occurrences(const std::string& text,
                                const std::string& what) {
  std::vector<size_t> out;
  for (size_t p = text.find(what); p != std::string::npos;
       p = text.find(what, p + 1)) {
    out.push_back(p);
  }
  return out;
}

// Each mutant must be rejected with a non-empty error.
#define EXPECT_REJECTED(parse, text, what)                          \
  do {                                                              \
    std::string error;                                              \
    EXPECT_FALSE(parse(text, &error)) << (what) << ": " << (text);  \
    EXPECT_FALSE(error.empty()) << (what);                          \
  } while (0)

TEST(ParserMutation, CorporaParse) {
  std::string error;
  EXPECT_TRUE(ParseJson(JsonCorpus(), &error)) << error;
  const std::string expo =
      obs::ExpositionFormat::Write(ExpositionSnapshot());
  std::vector<obs::ExpositionSample> samples;
  ASSERT_TRUE(obs::ExpositionFormat::Parse(expo, &samples, &error))
      << error << "\n" << expo;
  // Info + counter + 2 gauges + 3 buckets, +Inf, _sum and _count.
  EXPECT_EQ(samples.size(), 10u);
}

TEST(ParserMutation, JsonRejectsInvalidMutants) {
  const std::string corpus = JsonCorpus();
  const std::vector<size_t> interior = StringInteriorOffsets(corpus);
  const std::vector<size_t> numbers = Occurrences(corpus, kMarkerNumber);
  ASSERT_FALSE(interior.empty());
  ASSERT_GE(numbers.size(), 3u);
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    EXPECT_REJECTED(ParseJson, corpus.substr(0, Pick(rng, corpus.size())),
                    "truncation");

    std::string flipped = corpus;
    flipped[Pick(rng, flipped.size())] = ControlByte(rng);
    EXPECT_REJECTED(ParseJson, flipped, "control byte");

    // The 66th nested container exceeds the parser's depth limit.
    const size_t depth = 66 + Pick(rng, 2000);
    EXPECT_REJECTED(ParseJson,
                    std::string(depth, '[') + std::string(depth, ']'),
                    "deep nesting");
    EXPECT_REJECTED(ParseJson,
                    std::string(depth, '[') + corpus + std::string(depth, ']'),
                    "deep nesting around the corpus");
    EXPECT_REJECTED(ParseJson, std::string(depth * 50, '['),
                    "unbalanced nesting");

    std::string huge = corpus;
    huge.replace(numbers[Pick(rng, numbers.size())],
                 std::string(kMarkerNumber).size(), HugeNumber(rng));
    EXPECT_REJECTED(ParseJson, huge, "huge number");

    std::string escaped = corpus;
    escaped.insert(interior[Pick(rng, interior.size())],
                   kBadJsonEscapes[Pick(rng, std::size(kBadJsonEscapes))]);
    EXPECT_REJECTED(ParseJson, escaped, "bad escape");
  }
}

TEST(ParserMutation, ExpositionRejectsInvalidMutants) {
  const std::string corpus =
      obs::ExpositionFormat::Write(ExpositionSnapshot());
  // Sample lines (offset, length); comments are free-form and stay valid
  // under any mutation.
  struct Line {
    size_t at = 0, len = 0;
  };
  std::vector<Line> samples, labeled;
  for (size_t at = 0; at < corpus.size();) {
    const size_t eol = corpus.find('\n', at);
    const Line line{at, eol - at};
    if (corpus[at] != '#') {
      samples.push_back(line);
      if (corpus.substr(at, line.len).find("=\"") != std::string::npos) {
        labeled.push_back(line);
      }
    }
    at = eol + 1;
  }
  ASSERT_EQ(samples.size(), 10u);
  ASSERT_FALSE(labeled.empty());

  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Line& line = samples[Pick(rng, samples.size())];
    const std::string text = corpus.substr(line.at, line.len);
    // The writer emits no timestamps and no spaces inside values, so the
    // value token starts after the last space.
    const size_t value_at = text.rfind(' ') + 1;
    const size_t name_len = text.find_first_of("{ ");

    // Cut anywhere after the name starts and before the value does.
    EXPECT_REJECTED(ParseExposition,
                    corpus.substr(0, line.at + 1 + Pick(rng, value_at)),
                    "truncation before the value");

    std::string flipped = corpus;
    const size_t in_name = Pick(rng, name_len);
    const size_t in_value = value_at + Pick(rng, text.size() - value_at);
    flipped[line.at + (rng() % 2 == 0 ? in_name : in_value)] =
        ControlByte(rng);
    EXPECT_REJECTED(ParseExposition, flipped, "control byte");

    // "m{} 1" is a valid empty label set; two or more braces are not.
    const size_t depth = 2 + Pick(rng, 5000);
    EXPECT_REJECTED(ParseExposition,
                    "m" + std::string(depth, '{') + std::string(depth, '}') +
                        " 1\n",
                    "nested label blocks");
    std::string deep_escapes = "m{a=\"";
    for (size_t i = 0; i < depth; ++i) deep_escapes += "\\\"";
    EXPECT_REJECTED(ParseExposition, deep_escapes + " 1\n",
                    "unterminated escaped value");

    std::string huge = corpus;
    huge.replace(line.at + value_at, text.size() - value_at, HugeNumber(rng));
    EXPECT_REJECTED(ParseExposition, huge, "huge number");

    const Line& lab = labeled[Pick(rng, labeled.size())];
    std::string escaped = corpus;
    escaped.insert(lab.at + corpus.substr(lab.at, lab.len).find("=\"") + 2,
                   kBadLabelEscapes[Pick(rng, std::size(kBadLabelEscapes))]);
    EXPECT_REJECTED(ParseExposition, escaped, "bad escape");
  }
}

TEST(ParserMutation, RandomByteFlipsNeverCrash) {
  const std::string json = JsonCorpus();
  const std::string expo = obs::ExpositionFormat::Write(ExpositionSnapshot());
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng(seed);
    std::string j = json, e = expo;
    for (int flips = 1 + static_cast<int>(Pick(rng, 4)); flips > 0; --flips) {
      j[Pick(rng, j.size())] ^= static_cast<char>(1 + Pick(rng, 255));
      e[Pick(rng, e.size())] ^= static_cast<char>(1 + Pick(rng, 255));
    }
    // Either verdict is fine; a rejection must say why.
    std::string error;
    if (!ParseJson(j, &error)) {
      EXPECT_FALSE(error.empty());
    }
    error.clear();
    if (!ParseExposition(e, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

}  // namespace
}  // namespace wimpi

// The strict readers and number writers of util/text.hpp, table-driven,
// plus the hostile inputs each front end must reject with its documented
// class, plus a seeded mutation sweep (byte flips, truncations, splices)
// over every format the tool reads back. The sweep only parses and decodes: a
// flipped digit can ask for millions of kernels, so no mutant ever runs
// the pipeline.
#include "util/text.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "apps/synthetic.hpp"
#include "dse/outcome_codec.hpp"
#include "dse/reproducer.hpp"
#include "store/codec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hybridic {
namespace {

using text::FlatJson;
using text::JsonObject;
using text::JsonValue;

// ---------------------------------------------------------------------------
// Numbers, booleans, fields.

TEST(TextNumbers, ParseU64AcceptsDigitsOnly) {
  const std::vector<std::pair<std::string, std::uint64_t>> accept = {
      {"0", 0}, {"7", 7}, {"007", 7}, {"18446744073709551615", UINT64_MAX}};
  for (const auto& [input, expected] : accept) {
    std::uint64_t value = 1;
    EXPECT_TRUE(text::parse_u64(input, value)) << input;
    EXPECT_EQ(value, expected) << input;
  }
  for (const std::string input :
       {"", "-1", "+7", " 1", "1 ", "1.9", "1e3", "1e", "-", "0x10", "abc",
        "1x", "18446744073709551616", "99999999999999999999"}) {
    std::uint64_t value = 0;
    EXPECT_FALSE(text::parse_u64(input, value)) << "'" << input << "'";
  }
}

TEST(TextNumbers, ParseU32RejectsWhatDoesNotFit) {
  std::uint32_t value = 0;
  EXPECT_TRUE(text::parse_u32("4294967295", value));
  EXPECT_EQ(value, UINT32_MAX);
  for (const std::string input : {"4294967296", "4294967297", "-1", "1.9"}) {
    EXPECT_FALSE(text::parse_u32(input, value)) << input;
  }
}

TEST(TextNumbers, ParseF64TakesTheWholeToken) {
  const std::vector<std::pair<std::string, double>> accept = {
      {"0", 0.0},
      {"1.5", 1.5},
      {"-2e-3", -2e-3},
      {"0x1.8p+1", 3.0},
      // The exact "%a" spelling of the smallest denormal: no range error.
      {"0x0.0000000000001p-1022", 0x0.0000000000001p-1022},
      {text::hexf(0.1), 0.1}};
  for (const auto& [input, expected] : accept) {
    double value = 0.0;
    EXPECT_TRUE(text::parse_f64(input, value)) << input;
    EXPECT_EQ(value, expected) << input;
  }
  for (const std::string input :
       {"", " 1", "\t1", "1 ", "1e", "-", "1.9x", "abc", "1e-400", "1e400"}) {
    double value = 0.0;
    EXPECT_FALSE(text::parse_f64(input, value)) << "'" << input << "'";
  }
}

TEST(TextNumbers, ParseBoolIsZeroOrOne) {
  bool value = false;
  EXPECT_TRUE(text::parse_bool("1", value));
  EXPECT_TRUE(value);
  EXPECT_TRUE(text::parse_bool("0", value));
  EXPECT_FALSE(value);
  for (const std::string input : {"", "2", "true", "01", " 1"}) {
    EXPECT_FALSE(text::parse_bool(input, value)) << input;
  }
}

TEST(TextFields, SplitFieldsRejectsEmptyFields) {
  EXPECT_EQ(text::split_fields("a bb c"),
            (std::vector<std::string>{"a", "bb", "c"}));
  EXPECT_EQ(text::split_fields("a"), (std::vector<std::string>{"a"}));
  for (const std::string input : {"", " ", " a", "a ", "a  b"}) {
    EXPECT_TRUE(text::split_fields(input).empty()) << "'" << input << "'";
  }
}

// ---------------------------------------------------------------------------
// Number writers: one per format, each read back by parse_f64/parse_u64.

std::uint64_t bits_of(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

/// Doubles at the edges of the format: signed zeros, the subnormal range,
/// the normal limits, and values with no short decimal spelling.
std::vector<double> edge_doubles() {
  using limits = std::numeric_limits<double>;
  return {0.0,           -0.0,          limits::denorm_min(),
          -limits::denorm_min(),        limits::min() / 3.0,
          limits::min(), limits::max(), -limits::max(),
          0.1,           0.1 + 0.2,     1.0 / 3.0,
          1e300,         -2.5e-7,       12345.678};
}

TEST(TextWriters, Hex16IsSixteenZeroPaddedLowercaseDigits) {
  const std::vector<std::pair<std::uint64_t, std::string>> known = {
      {0, "0000000000000000"},
      {1, "0000000000000001"},
      {0xdeadbeefULL, "00000000deadbeef"},
      {0x0123456789abcdefULL, "0123456789abcdef"},
      {UINT64_MAX, "ffffffffffffffff"}};
  for (const auto& [value, expected] : known) {
    EXPECT_EQ(text::hex16(value), expected);
  }
}

TEST(TextWriters, Decimal17KnownAnswersAndRoundTrip) {
  const std::vector<std::pair<double, std::string>> known = {
      {0.0, "0"},
      {-0.0, "-0"},
      {1.0, "1"},
      {0.5, "0.5"},
      {0.1, "0.10000000000000001"},
      {0.1 + 0.2, "0.30000000000000004"},
      {std::numeric_limits<double>::denorm_min(), "4.9406564584124654e-324"},
      {std::numeric_limits<double>::max(), "1.7976931348623157e+308"}};
  for (const auto& [value, expected] : known) {
    EXPECT_EQ(text::decimal17(value), expected);
  }
  // The spelling the CSV, reproducer and serve writers always used: an
  // ostream at precision 17.
  Rng rng{17};
  std::vector<double> values = edge_doubles();
  for (int i = 0; i < 2000; ++i) {
    double value = 0.0;
    const std::uint64_t pattern = rng.next();
    std::memcpy(&value, &pattern, sizeof(value));
    if (std::isfinite(value)) {
      values.push_back(value);
    }
  }
  for (const double value : values) {
    std::ostringstream stream;
    stream.precision(17);
    stream << value;
    const std::string written = text::decimal17(value);
    EXPECT_EQ(written, stream.str());
    double back = 1.0;
    ASSERT_TRUE(text::parse_f64(written, back)) << written;
    EXPECT_EQ(bits_of(back), bits_of(value)) << written;
  }
}

TEST(TextWriters, HexfKnownAnswersAndRoundTrip) {
  const std::vector<std::pair<double, std::string>> known = {
      {0.0, "0x0p+0"},
      {-0.0, "-0x0p+0"},
      {1.0, "0x1p+0"},
      {3.0, "0x1.8p+1"},
      {0.1, "0x1.999999999999ap-4"},
      {std::numeric_limits<double>::denorm_min(), "0x0.0000000000001p-1022"},
      {std::numeric_limits<double>::max(), "0x1.fffffffffffffp+1023"}};
  for (const auto& [value, expected] : known) {
    EXPECT_EQ(text::hexf(value), expected);
  }
  for (const double value : edge_doubles()) {
    double back = 1.0;
    ASSERT_TRUE(text::parse_f64(text::hexf(value), back)) << value;
    EXPECT_EQ(bits_of(back), bits_of(value)) << text::hexf(value);
  }
}

// ---------------------------------------------------------------------------
// Codec line reader.

TEST(TextReader, TakesLinesTagsAndSizedFields) {
  text::Reader reader{"magic 1\nname 5\nab\ncd\nrest x y\nend\n"};
  std::string value;
  EXPECT_TRUE(reader.take_exact("magic 1"));
  EXPECT_TRUE(reader.take_sized("name", value));
  EXPECT_EQ(value, "ab\ncd");
  EXPECT_TRUE(reader.take_tagged("rest", value));
  EXPECT_EQ(value, "x y");
  EXPECT_FALSE(reader.at_end());
  EXPECT_TRUE(reader.take_exact("end"));
  EXPECT_TRUE(reader.at_end());
  EXPECT_FALSE(reader.take_line(value));
}

TEST(TextReader, RejectsShapeViolations) {
  std::string value;
  EXPECT_FALSE(text::Reader{"no newline"}.take_line(value));
  EXPECT_FALSE(text::Reader{"tagx 1\n"}.take_tagged("tag", value));
  EXPECT_FALSE(text::Reader{"tag\n"}.take_tagged("tag", value));
  EXPECT_FALSE(text::Reader{"name 4\nabc\n"}.take_sized("name", value));
  EXPECT_FALSE(text::Reader{"name 2\nabc\n"}.take_sized("name", value));
  EXPECT_FALSE(text::Reader{"name -1\nabc\n"}.take_sized("name", value));
  // A length whose end offset would wrap around 2^64 is damage, not a
  // read of the rest of the payload.
  EXPECT_FALSE(text::Reader{"name 18446744073709551615\nabc\n"}.take_sized(
      "name", value));
  EXPECT_FALSE(text::Reader{"name 18446744073709551614\nabc\n"}.take_sized(
      "name", value));
}

// ---------------------------------------------------------------------------
// JSON escaping and the flat-JSON reader.

TEST(TextJson, EscapeSpellsEveryControlByte) {
  EXPECT_EQ(text::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(text::json_escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(text::json_escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(text::json_escape("\x1f"), "\\u001f");
  EXPECT_EQ(text::json_escape("\x7f/\xc3\xa9"), "\x7f/\xc3\xa9");
}

bool parses(const std::string& json, FlatJson& doc) {
  std::string error;
  const bool ok = text::parse_flat_json(json, doc, error);
  EXPECT_EQ(ok, error.empty()) << json << ": " << error;
  return ok;
}

TEST(TextJson, EscapeThenParseIsTheIdentityOnAscii) {
  std::string all;
  for (int b = 0; b < 0x80; ++b) {
    const std::string byte(1, static_cast<char>(b));
    all += byte;
    FlatJson doc;
    ASSERT_TRUE(parses("{\"k\":\"" + text::json_escape(byte) + "\"}", doc))
        << "byte " << b;
    EXPECT_EQ(doc.fields.at("k").text, byte) << "byte " << b;
  }
  FlatJson doc;
  ASSERT_TRUE(parses("{\"" + text::json_escape(all) + "\":\"" +
                         text::json_escape(all) + "\"}",
                     doc));
  EXPECT_EQ(doc.fields.at(all).text, all);
}

TEST(TextJson, AcceptsTheDocumentedSubset) {
  FlatJson doc;
  ASSERT_TRUE(parses(
      " {\"s\": \"x\", \"t\":true,\"f\":false ,\"n\":-0.5e+3,\"z\":0,"
      "\"cfg\":{\"k\":1, \"e\":1E-2},\"u\":\"\\u0001\"}\r\n",
      doc));
  EXPECT_EQ(doc.fields.at("s").kind, JsonValue::Kind::kString);
  EXPECT_EQ(doc.fields.at("t").text, "1");
  EXPECT_EQ(doc.fields.at("f").text, "0");
  EXPECT_EQ(doc.fields.at("f").kind, JsonValue::Kind::kBool);
  EXPECT_EQ(doc.fields.at("n").text, "-0.5e+3");
  EXPECT_EQ(doc.fields.at("n").kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(doc.fields.at("cfg").kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.nested.at("k").text, "1");
  EXPECT_EQ(doc.nested.at("e").text, "1E-2");
  EXPECT_EQ(doc.fields.at("u").text, "\x01");

  FlatJson empty;
  EXPECT_TRUE(parses("{}", empty));
  EXPECT_TRUE(empty.fields.empty());
  FlatJson empty_nested;
  EXPECT_TRUE(parses("{\"c\":{}}", empty_nested));
}

TEST(TextJson, RejectsEverythingOutsideTheSubset) {
  const std::vector<std::string> reject = {
      "",
      "   ",
      "[]",
      "{",
      "{\"a\":1",
      "{\"a\":1,}",
      "{,}",
      "{a:1}",
      "{\"a\" 1}",
      "{\"a\":}",
      "{\"a\":1}x",
      "{\"a\":1}{\"b\":2}",
      "\v{}",
      "{}\f",
      // Numbers outside the JSON grammar.
      "{\"a\":+7}",
      "{\"a\":1.}",
      "{\"a\":.5}",
      "{\"a\":1e}",
      "{\"a\":1e+}",
      "{\"a\":-}",
      "{\"a\":01}",
      "{\"a\":-01}",
      "{\"a\":0x10}",
      "{\"a\":1.5.5}",
      "{\"a\":NaN}",
      "{\"a\":Infinity}",
      // Other JSON values the subset leaves out.
      "{\"a\":null}",
      "{\"a\":[1]}",
      "{\"a\":tru}",
      "{\"a\":True}",
      // Duplicate keys, at either level.
      "{\"a\":1,\"a\":1}",
      "{\"a\":1,\"a\":\"1\"}",
      "{\"c\":{\"k\":1,\"k\":2}}",
      // Nesting beyond one object of scalars.
      "{\"c\":{},\"d\":{}}",
      "{\"c\":{\"d\":{}}}",
      // Raw control bytes inside strings.
      "{\"a\":\"x\x01\"}",
      "{\"a\":\"x\ny\"}",
      "{\"a\":\"x\ty\"}",
      "{\"a\x1f\":1}",
      // Escapes json_escape never emits.
      "{\"a\":\"\\/\"}",
      "{\"a\":\"\\b\"}",
      "{\"a\":\"\\f\"}",
      "{\"a\":\"\\x41\"}",
      "{\"a\":\"\\u0041\"}",
      "{\"a\":\"\\u000a\"}",
      "{\"a\":\"\\u001F\"}",
      "{\"a\":\"\\u00e9\"}",
      "{\"a\":\"\\u001\"}",
      "{\"a\":\"\\",
      "{\"a\":\"unterminated}",
  };
  for (const std::string& json : reject) {
    FlatJson doc;
    std::string error;
    EXPECT_FALSE(text::parse_flat_json(json, doc, error)) << json;
    EXPECT_FALSE(error.empty()) << json;
  }
}

TEST(TextJson, ErrorsNameTheProblem) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"x", "expected '{'"},
      {"{1:2}", "expected a string key"},
      {"{\"k\" 1}", "expected ':' after key \"k\""},
      {"{\"k\":+7}", "bad value for key \"k\""},
      {"{\"k\":1,\"k\":2}", "duplicate key \"k\""},
      {"{\"k\":1 \"j\":2}", "expected ',' or '}'"},
      {"{\"k\":1} 1", "trailing characters after '}'"}};
  for (const auto& [json, expected] : cases) {
    FlatJson doc;
    std::string error;
    EXPECT_FALSE(text::parse_flat_json(json, doc, error));
    EXPECT_EQ(error, expected) << json;
  }
}

TEST(TextJson, TypedViewsCheckKindAndRange) {
  const auto number = [](const std::string& spelling) {
    return JsonValue{JsonValue::Kind::kNumber, spelling};
  };
  std::uint64_t u64 = 0;
  std::uint32_t u32 = 0;
  double f64 = 0.0;
  std::string str;
  EXPECT_TRUE(number("42").as_u64(u64));
  EXPECT_EQ(u64, 42U);
  EXPECT_FALSE(number("-1").as_u64(u64));
  EXPECT_FALSE(number("1.9").as_u64(u64));
  EXPECT_FALSE(number("1e3").as_u64(u64));
  EXPECT_FALSE(number("99999999999999999999").as_u64(u64));
  EXPECT_FALSE(number("4294967297").as_u32(u32));
  EXPECT_TRUE(number("0.25").as_f64(f64));
  EXPECT_EQ(f64, 0.25);
  EXPECT_FALSE(number("1e-400").as_f64(f64));
  EXPECT_FALSE(number("1e400").as_f64(f64));
  EXPECT_FALSE(number("1").as_string(str));
  const JsonValue quoted{JsonValue::Kind::kString, "5"};
  EXPECT_FALSE(quoted.as_u64(u64));
  EXPECT_FALSE(quoted.as_f64(f64));
  EXPECT_TRUE(quoted.as_string(str));
  const JsonValue flag{JsonValue::Kind::kBool, "1"};
  EXPECT_FALSE(flag.as_u64(u64));
}

// ---------------------------------------------------------------------------
// Reproducers: every malformed or out-of-range value is a ConfigError.

std::string fixture(const std::string& relative) {
  std::ifstream in{std::string{HYBRIDIC_TESTS_SOURCE_DIR} + "/fixtures/" +
                   relative};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const char* const kDseFixture = "dse/mutation-nonzero-traffic-seed7.json";

/// The checked-in reproducer with the value of `field` (as spelled in the
/// file, including its trailing comma or newline) replaced.
std::string with_value(const std::string& field, const std::string& value) {
  std::string json = fixture(kDseFixture);
  const std::string key = "\"" + field + "\": ";
  const std::size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << field;
  const std::size_t begin = at + key.size();
  const std::size_t end = json.find_first_of(",\n", begin);
  return json.replace(begin, end - begin, value);
}

TEST(TextReproducer, CheckedInFixtureStillParses) {
  const dse::Reproducer r = dse::parse_reproducer(fixture(kDseFixture));
  EXPECT_EQ(r.oracle, "mutation-nonzero-traffic");
  EXPECT_EQ(r.config.kernel_count, 1U);
  EXPECT_EQ(r.config.seed, 7U);
}

TEST(TextReproducer, HostileNumbersAreConfigErrors) {
  for (const std::string value :
       {"-1", "1.9", "1e", "-", "\"-\"", "99999999999999999999", "+1", "01",
        "1.", "1e3", "true", "\"1\"", "null"}) {
    EXPECT_THROW((void)dse::parse_reproducer(with_value("kernel_count", value)),
                 ConfigError)
        << "kernel_count " << value;
    EXPECT_THROW((void)dse::parse_reproducer(with_value("seed", value)),
                 ConfigError)
        << "seed " << value;
  }
  // Fits u64 but not the u32 field: rejected, never wrapped to 1.
  EXPECT_THROW(
      (void)dse::parse_reproducer(with_value("kernel_count", "4294967297")),
      ConfigError);
  for (const std::string value : {"1e", "-", "\"0.5\"", "1e-400", "1.5"}) {
    EXPECT_THROW((void)dse::parse_reproducer(
                     with_value("kernel_edge_probability", value)),
                 ConfigError)
        << "kernel_edge_probability " << value;
  }
  EXPECT_THROW((void)dse::parse_reproducer(with_value("schema", "1.5")),
               ConfigError);
  EXPECT_THROW((void)dse::parse_reproducer(with_value("schema", "\"1\"")),
               ConfigError);
}

TEST(TextReproducer, OutOfRangeConfigsAreConfigErrors) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"kernel_count", "257"},
      {"kernel_count", "100000"},
      {"max_edge_bytes", "1099511627777"},
      {"max_edge_bytes", "18446744073709551615"},
      {"max_work_units", "1099511627777"}};
  for (const auto& [field, value] : cases) {
    EXPECT_THROW((void)dse::parse_reproducer(with_value(field, value)),
                 ConfigError)
        << field << " " << value;
  }
}

TEST(TextReproducer, StrictStringsAndKeys) {
  std::string json = fixture(kDseFixture);
  // Raw control characters inside a string.
  std::string raw_tab = json;
  raw_tab.replace(raw_tab.find("design moves"), 1, "\t");
  EXPECT_THROW((void)dse::parse_reproducer(raw_tab), ConfigError);
  // Duplicate keys.
  std::string duplicate = json;
  duplicate.replace(duplicate.find("\"seed\": 7"), 9,
                    "\"seed\": 7,\n    \"seed\": 8");
  EXPECT_THROW((void)dse::parse_reproducer(duplicate), ConfigError);
  // Trailing bytes.
  EXPECT_THROW((void)dse::parse_reproducer(json + "x"), ConfigError);
  // Form feed is not JSON whitespace.
  EXPECT_THROW((void)dse::parse_reproducer("\f" + json), ConfigError);
}

// ---------------------------------------------------------------------------
// Mutation sweep.

/// Seeded byte-level mutants of `seed`: flips, truncations, splices (a
/// chunk of `donor` inserted or overwritten) and torn lines (a line cut
/// short and joined to a later one).
std::vector<std::string> mutants(const std::string& seed,
                                 const std::string& donor,
                                 std::uint64_t rng_seed, std::size_t count) {
  Rng rng{rng_seed};
  std::vector<std::string> out;
  out.reserve(count);
  const auto offset = [&rng](const std::string& s) {
    return static_cast<std::size_t>(rng.below(s.size() + 1));
  };
  for (std::size_t i = 0; i < count; ++i) {
    std::string m = seed;
    const std::uint64_t rounds = 1 + rng.below(3);
    for (std::uint64_t r = 0; r < rounds && !m.empty(); ++r) {
      switch (rng.below(5)) {
        case 0: {  // Flip one bit.
          const auto at = static_cast<std::size_t>(rng.below(m.size()));
          m[at] = static_cast<char>(m[at] ^ (1 << rng.below(8)));
          break;
        }
        case 1: {  // Overwrite one byte with any value.
          const auto at = static_cast<std::size_t>(rng.below(m.size()));
          m[at] = static_cast<char>(rng.below(256));
          break;
        }
        case 2:  // Truncate.
          m.resize(offset(m));
          break;
        case 3: {  // Splice a chunk of the donor in.
          const std::size_t from = offset(donor);
          const std::string chunk =
              donor.substr(from, static_cast<std::size_t>(rng.below(24)));
          m.insert(offset(m), chunk);
          break;
        }
        default: {  // Tear: cut a span out, joining its two ends.
          const std::size_t from = offset(m);
          m.erase(from, static_cast<std::size_t>(rng.below(48)));
          break;
        }
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

constexpr std::size_t kMutantsPerInput = 20000;

/// Run `read` on every mutant; it must return normally or throw
/// ConfigError (when `config_error_allowed`), never anything else.
/// Returns how many mutants it accepted.
std::size_t sweep(const std::string& seed, const std::string& donor,
                  std::uint64_t rng_seed, bool config_error_allowed,
                  const std::function<bool(const std::string&)>& read) {
  std::size_t accepted = 0;
  for (const std::string& m :
       mutants(seed, donor, rng_seed, kMutantsPerInput)) {
    try {
      accepted += read(m) ? 1U : 0U;
    } catch (const ConfigError&) {
      EXPECT_TRUE(config_error_allowed) << "ConfigError on: " << m;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "undocumented " << typeid(e).name() << " ("
                    << e.what() << ") on: " << m;
    }
  }
  return accepted;
}

/// A flat parse: accepted documents must answer every typed view without
/// throwing.
bool read_flat_json(const std::string& json) {
  FlatJson doc;
  std::string error;
  if (!text::parse_flat_json(json, doc, error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  for (const JsonObject* object : {&doc.fields, &doc.nested}) {
    for (const auto& [key, value] : *object) {
      std::uint64_t u64 = 0;
      std::uint32_t u32 = 0;
      double f64 = 0.0;
      std::string str;
      (void)value.as_u64(u64);
      (void)value.as_u32(u32);
      (void)value.as_f64(f64);
      (void)value.as_string(str);
    }
  }
  return true;
}

TEST(TextMutation, ReproducerFixtureMutantsParseOrRaiseConfigError) {
  const std::string dse = fixture(kDseFixture);
  const std::string search = fixture("search/broken-move-generator.json");
  ASSERT_FALSE(dse.empty());
  ASSERT_FALSE(search.empty());
  const std::size_t accepted =
      sweep(dse, search, 1, /*config_error_allowed=*/true,
            [](const std::string& m) {
              (void)dse::parse_reproducer(m);
              return true;
            });
  // Whitespace-only flips keep some mutants valid; most are damage.
  EXPECT_LT(accepted, kMutantsPerInput);
  (void)sweep(search, dse, 2, false, read_flat_json);
}

/// The request lines tools/serve_smoke.py sends (json.dumps spelling).
const std::vector<std::string> kServeLines = {
    R"({"id": "ok-1", "seed": 5, "kernels": 4})",
    R"({"id": "bad-key", "seed": 5, "bogus": 1})",
    R"({"id": "bad-config", "kernels": 0})",
    R"({"id": "wedged", "kernels": 8, "tier": "cycle", "timeout_s": 0.0001})",
    R"({"id": "stats", "op": "stats"})",
    R"({"id": "s3-search", "op": "search", "tier": "analytic", "seed": 9, )"
    R"("kernels": 5, "edge_p": 0.34999999999999998, "dup_p": 0.25, )"
    R"("stream_p": 0.5, "min_edge_bytes": 1024, "max_edge_bytes": 65536, )"
    R"("min_work": 5000, "max_work": 200000, "board_topology": "ring"})"};

TEST(TextMutation, ServeRequestMutantsParseOrAreUsageErrors) {
  for (std::size_t i = 0; i < kServeLines.size(); ++i) {
    FlatJson doc;
    ASSERT_TRUE(parses(kServeLines[i], doc)) << kServeLines[i];
    (void)sweep(kServeLines[i], kServeLines[(i + 1) % kServeLines.size()],
                10 + i, false, read_flat_json);
  }
}

dse::CaseOutcome sample_outcome() {
  dse::CaseOutcome o;
  o.index = 17;
  o.config.kernel_count = 5;
  o.config.seed = 99;
  o.config.board_count = 2;
  o.config.board_topology = "ring";
  o.solution_tag = "NoC, SM(crossbar)";
  o.baseline_seconds = 0.0123;
  o.designed_seconds = 0.0089;
  o.simulated = true;
  o.oracles.push_back({"determinism", true, ""});
  o.oracles.push_back({"speedup-sanity", false, "0.9x < 1.0x"});
  o.error = "an error\nwith a newline";
  tiers::TierEstimate estimate;
  estimate.solution_tag = "NoC, P";
  estimate.designed_kernel_seconds = 0.0185;
  estimate.congruence_key = 0xabcdef0011223344ULL;
  o.analytic = estimate;
  search::SearchRecord searched;
  searched.solution_tag = "NoC";
  searched.gain = 1.25;
  searched.proposed = 60;
  o.searched = searched;
  return o;
}

TEST(TextMutation, JournalPayloadMutantsDecodeOrAreDamage) {
  const std::string payload = dse::encode_outcome(sample_outcome());
  ASSERT_TRUE(dse::decode_outcome(payload).has_value());
  const std::size_t accepted =
      sweep(payload, payload, 20, false, [](const std::string& m) {
        return dse::decode_outcome(m).has_value();
      });
  EXPECT_LT(accepted, kMutantsPerInput);
}

TEST(TextMutation, ProfilePayloadMutantsDecodeOrAreDamage) {
  apps::SyntheticConfig config;
  config.kernel_count = 3;
  const std::string payload =
      store::encode_profile(apps::make_synthetic_app(config));
  ASSERT_NE(store::decode_profile(payload), nullptr);
  const std::size_t accepted =
      sweep(payload, payload, 30, false, [](const std::string& m) {
        return store::decode_profile(m) != nullptr;
      });
  EXPECT_LT(accepted, kMutantsPerInput);
}

}  // namespace
}  // namespace hybridic

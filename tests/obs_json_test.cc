// JsonWriter/ParseJson round-trip contract: every exposition sink and
// BENCH_*.json artifact renders through JsonWriter and must parse back
// under the strict parser — escaping, number formatting, and the bench
// envelope schema are all pinned here.

#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "obs/bench_sink.h"

namespace kg::obs {
namespace {

Result<JsonValue> MustParse(const std::string& text) {
  Result<JsonValue> parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status() << " for: " << text;
  return parsed;
}

TEST(JsonWriterTest, ComposesAndRoundTrips) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("kg");
  w.Key("count").Int(-3);
  w.Key("big").UInt(18446744073709551615ull);
  w.Key("ratio").Double(0.25, 3);
  w.Key("ok").Bool(true);
  w.Key("items").BeginArray().Int(1).Int(2).Int(3).EndArray();
  w.Key("nested").BeginObject().Key("x").Double(1.5, 1).EndObject();
  w.EndObject();
  const std::string doc = w.Take();

  const auto parsed = MustParse(doc);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& v = *parsed;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("name")->string_value, "kg");
  EXPECT_DOUBLE_EQ(v.Find("count")->number, -3.0);
  EXPECT_DOUBLE_EQ(v.Find("ratio")->number, 0.25);
  EXPECT_TRUE(v.Find("ok")->bool_value);
  ASSERT_TRUE(v.Find("items")->is_array());
  ASSERT_EQ(v.Find("items")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("items")->array[1].number, 2.0);
  EXPECT_DOUBLE_EQ(v.Find("nested")->Find("x")->number, 1.5);
}

TEST(JsonWriterTest, RawSplicesNestedDocuments) {
  JsonWriter inner;
  inner.BeginObject().Key("a").Int(1).EndObject();
  JsonWriter outer;
  outer.BeginObject().Key("payload").Raw(inner.Take()).EndObject();
  const auto parsed = MustParse(outer.Take());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->Find("payload")->Find("a")->number, 1.0);
}

TEST(JsonWriterTest, NonFiniteDoublesRenderAsNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::nan(""));
  w.EndArray();
  const auto parsed = MustParse(w.Take());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->array[0].is_null());
  EXPECT_TRUE(parsed->array[1].is_null());
}

TEST(JsonEscapeTest, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
  // UTF-8 passes through byte-for-byte.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonRoundTripTest, EscapedStringsSurviveWriterAndParser) {
  const std::string nasty = "q\"uote \\slash \n\t\r\b\f ctrl:\x01 caf\xc3\xa9";
  JsonWriter w;
  w.BeginObject().Key(nasty).String(nasty).EndObject();
  const auto parsed = MustParse(w.Take());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->object.size(), 1u);
  EXPECT_EQ(parsed->object.begin()->first, nasty);
  EXPECT_EQ(parsed->object.begin()->second.string_value, nasty);
}

TEST(JsonParserTest, UnicodeEscapesDecodeToUtf8) {
  auto decode = [](const std::string& doc) {
    const auto parsed = ParseJson(doc);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    return parsed.ok() ? parsed->string_value : std::string();
  };
  EXPECT_EQ(decode("\"\\u0041\""), "A");
  EXPECT_EQ(decode("\"\\u00e9\""), "\xc3\xa9");    // 2-byte UTF-8
  EXPECT_EQ(decode("\"\\u20AC\""), "\xe2\x82\xac");  // 3-byte UTF-8
  EXPECT_EQ(decode("\"\\u0031\\u0032\""), "12");
  EXPECT_FALSE(ParseJson("\"\\ud800\"").ok());  // surrogate
  EXPECT_FALSE(ParseJson("\"\\u00g1\"").ok());  // bad hex
  EXPECT_FALSE(ParseJson("\"\\u00\"").ok());    // truncated
}

TEST(JsonParserTest, ParsesNumbersWhitespaceAndLiterals) {
  EXPECT_DOUBLE_EQ(MustParse("  -12.5e2  ")->number, -1250.0);
  EXPECT_DOUBLE_EQ(MustParse("0")->number, 0.0);
  EXPECT_TRUE(MustParse("true")->bool_value);
  EXPECT_FALSE(MustParse("false")->bool_value);
  EXPECT_TRUE(MustParse("null")->is_null());
  EXPECT_TRUE(MustParse(" { } ")->is_object());
  EXPECT_TRUE(MustParse("[ ]")->is_array());
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",            // empty
      "{",           // unterminated object
      "[1",          // unterminated array
      "\"abc",       // unterminated string
      "tru",         // bad literal
      "{\"a\":}",    // missing value
      "{\"a\" 1}",   // missing colon
      "{a:1}",       // unquoted key
      "[1 2]",       // missing comma
      "1.2.3",       // malformed number
      "{} trailing",  // trailing garbage
      "[1],",        // trailing garbage
      "\"a\x01b\"",  // raw control character in string
      "\"bad\\x\"",  // bad escape
  };
  for (const char* doc : bad) {
    EXPECT_FALSE(ParseJson(doc).ok()) << "accepted: " << doc;
  }
}

TEST(JsonParserTest, BoundsNestingDepth) {
  std::string deep_ok(40, '['), deep_bad(100, '[');
  deep_ok += std::string(40, ']');
  deep_bad += std::string(100, ']');
  EXPECT_TRUE(ParseJson(deep_ok).ok());
  EXPECT_FALSE(ParseJson(deep_bad).ok());
}

TEST(JsonParserTest, ObjectKeysAreSortedForDeterministicIteration) {
  const auto parsed = MustParse("{\"z\":1,\"a\":2,\"m\":3}");
  ASSERT_TRUE(parsed.ok());
  std::vector<std::string> keys;
  for (const auto& [key, value] : parsed->object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "m", "z"}));
}

// The satellite contract: every BENCH_*.json artifact goes through
// JsonSink and parses back with the uniform metadata envelope.
TEST(JsonSinkTest, EnvelopeCarriesUniformMetadataAndParses) {
  const JsonSink sink("mybench", 7, 3);
  const std::string doc = sink.Render("{\"rows\":[1,2],\"ok\":true}");
  const auto parsed = MustParse(doc);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& v = *parsed;
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.Find("schema_version")->number, 2.0);
  EXPECT_EQ(v.Find("bench")->string_value, "mybench");
  EXPECT_DOUBLE_EQ(v.Find("seed")->number, 7.0);
  EXPECT_DOUBLE_EQ(v.Find("threads")->number, 3.0);
  ASSERT_NE(v.Find("git"), nullptr);
  EXPECT_TRUE(v.Find("git")->is_string());
  EXPECT_FALSE(v.Find("git")->string_value.empty());
  const JsonValue* payload = v.Find("payload");
  ASSERT_NE(payload, nullptr);
  ASSERT_TRUE(payload->is_object());
  EXPECT_TRUE(payload->Find("ok")->bool_value);
  ASSERT_EQ(payload->Find("rows")->array.size(), 2u);
}

TEST(JsonSinkTest, GitDescribeIsNonEmpty) {
  EXPECT_FALSE(GitDescribe().empty());
}

}  // namespace
}  // namespace kg::obs

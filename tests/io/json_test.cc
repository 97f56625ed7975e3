#include "io/json.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace skyferry::io {
namespace {

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(Json("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectPreservesInsertionOrderAndOverwritesInPlace) {
  Json j = Json::object();
  j.set("b", 1);
  j.set("a", 2);
  j.set("b", 3);  // overwrite keeps position
  EXPECT_EQ(j.dump(), "{\"b\":3,\"a\":2}");
  ASSERT_NE(j.find("a"), nullptr);
  EXPECT_EQ(j.find("a")->as_number(), 2.0);
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, ArrayPushBack) {
  Json j = Json::array();
  j.push_back(1);
  j.push_back("x");
  j.push_back(Json::object());
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.dump(), "[1,\"x\",{}]");
}

TEST(Json, SetOnNullBecomesObject) {
  Json j;
  j.set("k", 1);
  EXPECT_TRUE(j.is_object());
  Json a;
  a.push_back(1);
  EXPECT_TRUE(a.is_array());
}

TEST(Json, PrettyPrint) {
  Json j = Json::object();
  j.set("a", 1);
  Json arr = Json::array();
  arr.push_back(2);
  j.set("b", std::move(arr));
  // Pretty output ends in a newline so saved files are POSIX-clean.
  EXPECT_EQ(j.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n");
  EXPECT_EQ(Json::object().dump(2), "{}\n");
  EXPECT_EQ(Json::array().dump(2), "[]\n");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"schema":1,"name":"fig1","values":[1,2.5,-0.03],"flags":{"x":true,"y":null}})";
  std::string error;
  const auto j = Json::parse(text, &error);
  ASSERT_TRUE(j.has_value()) << error;
  EXPECT_EQ(j->dump(), text);
}

TEST(Json, ParseNumbers) {
  const auto j = Json::parse("[0, -0.5, 1e3, 1E-3, 123456789.25]");
  ASSERT_TRUE(j.has_value());
  EXPECT_DOUBLE_EQ(j->items()[1].as_number(), -0.5);
  EXPECT_DOUBLE_EQ(j->items()[2].as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(j->items()[4].as_number(), 123456789.25);
}

TEST(Json, NumberRoundTripIsExact) {
  // The golden files depend on dump/parse being bit-exact for doubles.
  const double values[] = {0.1, 1.0 / 3.0, 6.283185307179586, 1e-300, 9.007199254740993e15};
  for (const double v : values) {
    const auto j = Json::parse(json_number(v));
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(j->as_number(), v) << json_number(v);
  }
}

TEST(Json, ParseUnicodeEscapes) {
  const auto j = Json::parse(R"("\u0041\u00e9\u20ac")");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->as_string(), "A\xC3\xA9\xE2\x82\xAC");  // A, é, €
  const auto surrogate = Json::parse(R"("\ud83d\ude00")");
  ASSERT_TRUE(surrogate.has_value());
  EXPECT_EQ(surrogate->as_string(), "\xF0\x9F\x98\x80");  // 😀
}

TEST(Json, ParseErrors) {
  std::string error;
  EXPECT_FALSE(Json::parse("", &error).has_value());
  EXPECT_FALSE(Json::parse("{", &error).has_value());
  EXPECT_FALSE(Json::parse("[1,]", &error).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1,}", &error).has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}", &error).has_value());
  EXPECT_FALSE(Json::parse("nul", &error).has_value());
  EXPECT_FALSE(Json::parse("0x10", &error).has_value());
  EXPECT_FALSE(Json::parse("inf", &error).has_value());
  EXPECT_FALSE(Json::parse("nan", &error).has_value());
  EXPECT_FALSE(Json::parse("1 2", &error).has_value());  // trailing garbage
  EXPECT_FALSE(Json::parse("\"unterminated", &error).has_value());
  EXPECT_FALSE(Json::parse("\"bad\x01ctrl\"", &error).has_value());
  EXPECT_FALSE(Json::parse("\"\\q\"", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Json, ParseErrorReportsOffset) {
  std::string error;
  EXPECT_FALSE(Json::parse("[1, 2, oops]", &error).has_value());
  EXPECT_NE(error.find("7"), std::string::npos) << error;
}

TEST(Json, DeepNestingIsRejectedNotACrash) {
  // A million open brackets used to recurse once per level and overflow
  // the stack; now the parse stops at the depth cap with a message.
  constexpr std::size_t kDepth = 1000000;
  std::string objects;
  for (std::size_t i = 0; i < kDepth; ++i) objects += "{\"k\":";
  for (const std::string& text : {std::string(kDepth, '['), objects}) {
    std::string error;
    EXPECT_FALSE(Json::parse(text, &error).has_value());
    EXPECT_NE(error.find("nesting too deep at byte"), std::string::npos) << error;
  }
}

TEST(Json, NestingUpToTheCapParses) {
  const int depth = Json::kMaxDepth;
  const std::string text = std::string(depth, '[') + std::string(depth, ']');
  std::string error;
  const auto j = Json::parse(text, &error);
  ASSERT_TRUE(j.has_value()) << error;
  EXPECT_EQ(j->dump(), text);
  std::string deeper = "[" + text + "]";
  EXPECT_FALSE(Json::parse(deeper, &error).has_value());
  EXPECT_EQ(error, "nesting too deep at byte " + std::to_string(depth));
}

TEST(Json, TypedReadsFallBack) {
  const Json j(1.5);
  EXPECT_EQ(j.as_bool(true), true);      // wrong type -> fallback
  EXPECT_EQ(Json().as_number(7.0), 7.0);
  EXPECT_EQ(Json().as_string(), "");
}

}  // namespace
}  // namespace skyferry::io

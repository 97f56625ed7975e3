// Differential tests pinning io's charconv number codec to the
// snprintf/strtod code it replaced. The reference implementations live
// only here: json_number must emit the exact bytes of the old
// "%.{15,16,17}g until strtod reads it back" loop, and Json::parse must
// produce the exact bits strtod gives for the same literal.
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/json.h"
#include "support/proptest.h"

namespace skyferry::io {
namespace {

std::string reference_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  for (int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double from_text(const char* s) { return std::strtod(s, nullptr); }

/// Seeded corpus: random bit patterns (NaN and ±inf included), random
/// subnormals, short decimals (which stop at %.15g or %.16g), integers,
/// every power of ten, ±0 and the extremes.
std::vector<double> corpus(std::uint64_t seed, int n) {
  std::vector<double> v = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           0.1,
                           1.0 / 3.0,
                           1e308,
                           -1e308,
                           1e-308,
                           -1e-308,
                           DBL_MAX,
                           -DBL_MAX,
                           DBL_MIN,
                           -DBL_MIN,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           9007199254740992.0,
                           9007199254740993.0,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  char text[32];
  for (int e = -324; e <= 308; ++e) {
    std::snprintf(text, sizeof text, "1e%d", e);
    v.push_back(from_text(text));
    v.push_back(-from_text(text));
  }
  for (int i = -1000; i <= 1000; ++i) v.push_back(i);
  std::uint64_t s = seed;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bits = proptest::splitmix64(s);
    v.push_back(std::bit_cast<double>(bits));
    // Subnormal: zero exponent, random mantissa and sign.
    v.push_back(std::bit_cast<double>(bits & 0x800FFFFFFFFFFFFFULL));
    // Integer-valued, up to 2^63.
    v.push_back(static_cast<double>(static_cast<std::int64_t>(bits) >> (bits % 61)));
    // A short decimal: a mantissa of 1..16 digits times a power of ten.
    std::uint64_t pow10 = 10;
    for (std::uint64_t k = bits % 16; k > 0; --k) pow10 *= 10;
    std::snprintf(text, sizeof text, "%llue%d",
                  static_cast<unsigned long long>((bits >> 4) % pow10),
                  static_cast<int>((bits >> 40) % 600) - 300);
    v.push_back(from_text(text));
  }
  return v;
}

TEST(NumberCodec, JsonNumberIsByteIdenticalToThePrintfLoop) {
  std::size_t mismatches = 0;
  for (const double v : corpus(0xC0DEC, 50000)) {
    const std::string want = reference_json_number(v);
    const std::string got = json_number(v);
    if (got != want && mismatches++ < 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v) << ": got " << got
                    << ", want " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NumberCodec, AppendJsonNumberAppends) {
  std::string out = "x=";
  append_json_number(out, 0.1);
  out += ',';
  append_json_number(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "x=0.1,null");
}

/// The literals Json::parse sees for each corpus value: the dump form,
/// 17 significant digits, a short and a long scientific mantissa.
std::vector<std::string> literals_of(double v) {
  if (!std::isfinite(v)) return {};
  char buf[64];
  std::vector<std::string> out = {json_number(v)};
  for (const char* fmt : {"%.17g", "%.3e", "%.30e"}) {
    std::snprintf(buf, sizeof buf, fmt, v);
    out.emplace_back(buf);
  }
  return out;
}

void expect_parses_like_strtod(const std::string& text, std::size_t* mismatches) {
  const auto j = Json::parse(text);
  const double want = std::strtod(text.c_str(), nullptr);
  const bool same = j.has_value() && j->is_number() &&
                    std::bit_cast<std::uint64_t>(j->as_number()) ==
                        std::bit_cast<std::uint64_t>(want);
  if (!same && (*mismatches)++ < 5) {
    ADD_FAILURE() << text << ": parsed "
                  << (j && j->is_number() ? json_number(j->as_number()) : "<error>")
                  << ", strtod " << want;
  }
}

TEST(NumberCodec, JsonParseIsBitIdenticalToStrtod) {
  std::size_t mismatches = 0;
  for (const double v : corpus(0xB175, 20000)) {
    for (const std::string& text : literals_of(v)) expect_parses_like_strtod(text, &mismatches);
  }
  // Random literals in the JSON grammar, up to 40 mantissa digits and
  // exponents well past both ends of the double range: overflow keeps
  // strtod's ±HUGE_VAL and underflow its zero or subnormal.
  std::uint64_t s = 0x11737;
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    if (proptest::splitmix64(s) % 2) text += '-';
    const int int_digits = static_cast<int>(proptest::splitmix64(s) % 20) + 1;
    for (int d = 0; d < int_digits; ++d) {
      const auto digit = static_cast<char>('0' + proptest::splitmix64(s) % 10);
      text += (d == 0 && int_digits > 1 && digit == '0') ? '7' : digit;
    }
    if (proptest::splitmix64(s) % 2) {
      text += '.';
      const int frac_digits = static_cast<int>(proptest::splitmix64(s) % 20) + 1;
      for (int d = 0; d < frac_digits; ++d)
        text += static_cast<char>('0' + proptest::splitmix64(s) % 10);
    }
    if (proptest::splitmix64(s) % 3) {
      text += "eE"[proptest::splitmix64(s) % 2];
      const std::uint64_t sign = proptest::splitmix64(s) % 3;
      if (sign) text += sign == 1 ? '+' : '-';
      text += std::to_string(proptest::splitmix64(s) % 420);
    }
    expect_parses_like_strtod(text, &mismatches);
  }
  for (const char* text : {"1e400", "-1e400", "1e-400", "-1e-400", "2e-324", "3e-324",
                           "2.4703282292062327e-324", "2.4703282292062328e-324",
                           "1.7976931348623158e308", "1.7976931348623159e308"}) {
    expect_parses_like_strtod(text, &mismatches);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NumberCodec, OutOfRangeLiteralsKeepStrtodsResult) {
  const auto j = Json::parse("[1e400, -1e400, 1e-400, -1e-400]");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->items()[0].as_number(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(j->items()[1].as_number(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(j->items()[2].as_number()), 0u);
  EXPECT_TRUE(std::signbit(j->items()[3].as_number()));
  EXPECT_EQ(j->items()[3].as_number(), 0.0);
}

// --- parse_number: the one-token grammar of LineServer fields and
// exp::Cli flag values -----------------------------------------------------
//
// The whole token must be a T, optionally after a single '+'. Whitespace,
// glued garbage, out-of-range values (overflow and, for doubles,
// underflow) and non-finite doubles fail. Accepted tokens must give the
// C library's value for the same text, bit for bit.

struct TokenCase {
  const char* name;
  const char* text;
  bool ok;
};

/// A stable rendering for test listings (the default would dump the
/// struct's pointer bytes, which change from run to run).
void PrintTo(const TokenCase& c, std::ostream* os) {
  *os << '<' << c.text << (c.ok ? "> accepted" : "> rejected");
}

std::string case_name(const ::testing::TestParamInfo<TokenCase>& info) {
  return info.param.name;
}

/// The token as the C library reads it: one leading '+' dropped.
std::string without_plus(const char* text) {
  return text[0] == '+' ? std::string(text + 1) : std::string(text);
}

class ParseNumberDouble : public ::testing::TestWithParam<TokenCase> {};

TEST_P(ParseNumberDouble, AcceptsExactlyTheGrammar) {
  const TokenCase& c = GetParam();
  double got = 0.0;
  ASSERT_EQ(parse_number(c.text, &got), c.ok) << "'" << c.text << "'";
  if (!c.ok) return;
  const double want = std::strtod(without_plus(c.text).c_str(), nullptr);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want)) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Tokens, ParseNumberDouble,
    ::testing::Values(TokenCase{"Zero", "0", true}, TokenCase{"NegativeZero", "-0", true},
                      TokenCase{"PlusSign", "+1.5", true},
                      TokenCase{"NegativeScientific", "-2.5e10", true},
                      TokenCase{"UpperCaseExponent", "1E5", true},
                      TokenCase{"SignedExponent", "1e+5", true},
                      TokenCase{"LeadingDot", ".5", true}, TokenCase{"PlusLeadingDot", "+.5", true},
                      TokenCase{"TrailingDot", "5.", true}, TokenCase{"LeadingZeros", "007", true},
                      TokenCase{"Tiny", "1e-300", true}, TokenCase{"Subnormal", "4.9e-324", true},
                      TokenCase{"Largest", "1.7976931348623157e308", true},
                      TokenCase{"Empty", "", false}, TokenCase{"PlusAlone", "+", false},
                      TokenCase{"MinusAlone", "-", false}, TokenCase{"PlusMinus", "+-5", false},
                      TokenCase{"DoublePlus", "++5", false},
                      TokenCase{"LeadingSpace", " 5", false},
                      TokenCase{"TrailingSpace", "5 ", false},
                      TokenCase{"GluedGarbage", "1e-4x", false},
                      TokenCase{"DanglingExponent", "1e", false},
                      TokenCase{"ExponentOnly", "e5", false},
                      TokenCase{"DecimalComma", "1,5", false}, TokenCase{"Hex", "0x1p3", false},
                      TokenCase{"Nan", "nan", false}, TokenCase{"PlusNan", "+nan", false},
                      TokenCase{"Inf", "inf", false}, TokenCase{"NegativeInf", "-inf", false},
                      TokenCase{"Infinity", "infinity", false},
                      TokenCase{"Overflow", "1e999", false},
                      TokenCase{"NegativeOverflow", "-1e999", false},
                      TokenCase{"Underflow", "1e-999", false}),
    case_name);

class ParseNumberInt : public ::testing::TestWithParam<TokenCase> {};

TEST_P(ParseNumberInt, AcceptsExactlyTheGrammar) {
  const TokenCase& c = GetParam();
  int got = 0;
  ASSERT_EQ(parse_number(c.text, &got), c.ok) << "'" << c.text << "'";
  if (c.ok) EXPECT_EQ(got, std::strtoll(without_plus(c.text).c_str(), nullptr, 10)) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Tokens, ParseNumberInt,
    ::testing::Values(TokenCase{"Zero", "0", true}, TokenCase{"NegativeZero", "-0", true},
                      TokenCase{"PlusSign", "+8", true}, TokenCase{"LeadingZeros", "007", true},
                      TokenCase{"Max", "2147483647", true}, TokenCase{"Min", "-2147483648", true},
                      TokenCase{"MaxPlusOne", "2147483648", false},
                      TokenCase{"MinMinusOne", "-2147483649", false},
                      TokenCase{"TwoToThe32PlusOne", "4294967297", false},
                      TokenCase{"Fraction", "1.0", false}, TokenCase{"Scientific", "1e3", false},
                      TokenCase{"Hex", "0x10", false}, TokenCase{"GluedGarbage", "12abc", false},
                      TokenCase{"LeadingSpace", " 5", false},
                      TokenCase{"TrailingSpace", "5 ", false},
                      TokenCase{"PlusMinus", "+-5", false}, TokenCase{"DoublePlus", "++5", false},
                      TokenCase{"MinusAlone", "-", false}, TokenCase{"PlusAlone", "+", false},
                      TokenCase{"Empty", "", false}),
    case_name);

class ParseNumberUint64 : public ::testing::TestWithParam<TokenCase> {};

TEST_P(ParseNumberUint64, AcceptsExactlyTheGrammar) {
  const TokenCase& c = GetParam();
  std::uint64_t got = 0;
  ASSERT_EQ(parse_number(c.text, &got), c.ok) << "'" << c.text << "'";
  if (c.ok) EXPECT_EQ(got, std::strtoull(without_plus(c.text).c_str(), nullptr, 10)) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Tokens, ParseNumberUint64,
    ::testing::Values(TokenCase{"Zero", "0", true}, TokenCase{"PlusZero", "+0", true},
                      TokenCase{"Max", "18446744073709551615", true},
                      TokenCase{"PlusMax", "+18446744073709551615", true},
                      TokenCase{"MaxPlusOne", "18446744073709551616", false},
                      TokenCase{"Negative", "-5", false},
                      TokenCase{"SpaceThenNegative", " -5", false},
                      TokenCase{"NegativeZero", "-0", false}, TokenCase{"PlusMinus", "+-1", false},
                      TokenCase{"Fraction", "1.5", false}, TokenCase{"Empty", "", false}),
    case_name);

}  // namespace
}  // namespace skyferry::io

// Differential and property tests for the skyferry_decide line protocol.
//
// The oracle is the std::istringstream field parser LineServer used
// before its charconv tokenizer; it lives only in this file. A seeded
// mutational fuzzer feeds lines through LineServer::run and holds the
// server to the oracle: a line the oracle rejects must get "err", an
// "ok" must be byte-identical to the oracle query's decision, and a
// line the oracle accepts but the server rejects must fall into one of
// the protocol's deliberate deltas (a token that is not one whole
// decimal literal, a literal that underflows to zero, an out-of-range
// min_d) or fail Query::validate() with its tag.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/throughput_model.h"
#include "policy/compiler.h"
#include "policy/server.h"
#include "support/proptest.h"

namespace skyferry::policy {
namespace {

/// The pre-charconv parse_query, verbatim in behaviour.
bool oracle_parse(const std::string& line, Query* out) {
  std::istringstream fields(line);
  Query q;
  if (!(fields >> q.d0_m >> q.speed_mps >> q.mdata_bytes >> q.rho_per_m)) return false;
  double min_d;
  if (fields >> min_d) q.min_distance_m = min_d;
  std::string extra;
  if (fields >> extra) return false;
  *out = q;
  return true;
}

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    if (is_space(line[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < line.size() && !is_space(line[j])) ++j;
    out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

/// [+-]? (digits [. digits?] | . digits) ([eE] [+-]? digits)?
bool is_decimal_literal(const std::string& t) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t start = i;
    while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
    return i > start;
  };
  if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
  const bool int_part = digits();
  bool frac_part = false;
  if (i < t.size() && t[i] == '.') {
    ++i;
    frac_part = digits();
  }
  if (!int_part && !frac_part) return false;
  if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == t.size();
}

/// Why the new grammar rejects a line the oracle may accept, judged
/// with strtod rather than the server's own from_chars: "" when every
/// token is a whole, in-range decimal literal. The oracle accepts
///   - glued garbage: it reads a token's numeric prefix and the rest as
///     the next field, or ignores a min_d it cannot read at all;
///   - underflow: a nonzero literal that rounds to 0 is read as 0;
///   - overflow, as min_d only: elsewhere it rejects the line, but a
///     min_d it cannot read is ignored like any other.
std::string grammar_delta(const std::string& line) {
  for (const std::string& t : tokens_of(line)) {
    if (!is_decimal_literal(t)) return "not-a-whole-literal";
    errno = 0;
    const double v = std::strtod(t.c_str(), nullptr);
    if (errno == ERANGE && v == 0.0) return "underflow";
    if (errno == ERANGE && std::isinf(v)) return "overflow";
  }
  return "";
}

/// A service with a small compiled table, so fuzzed lines reach both
/// the table path and the exact fallback.
const DecisionService& fuzz_service() {
  struct Fixture {
    core::PaperLogThroughput model = core::PaperLogThroughput::airplane();
    DecisionService service{model};
    Fixture() {
      CompilerConfig cfg;
      cfg.d0 = {60.0, 300.0, 5};
      cfg.speed = {2.0, 20.0, 4};
      cfg.mdata = {5e6, 6e7, 4, true};
      cfg.rho = {1e-4, 5e-3, 4, true};
      cfg.threads = 2;
      service.install_table(Compiler(cfg).compile());
    }
  };
  static const Fixture fixture;
  return fixture.service;
}

std::string serve_line(const std::string& line) {
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(fuzz_service(), opt);
  std::istringstream in(line + "\n");
  std::ostringstream out;
  (void)server.run(in, out);
  std::string reply = out.str();
  if (!reply.empty() && reply.back() == '\n') reply.pop_back();
  return reply;
}

std::string seed_line(proptest::Case& g) {
  char buf[160];
  const double d0 = g.uniform(0.0, 400.0);
  const double v = g.uniform(0.5, 25.0);
  const double mdata = std::exp(g.uniform(std::log(1e5), std::log(1e8)));
  const double rho = std::exp(g.uniform(std::log(1e-5), std::log(1e-2)));
  double fields[] = {d0, v, mdata, rho, g.uniform(0.0, 60.0)};
  // Some lines leave the physical domain: a negative field or v = 0.
  if (g.chance(0.15)) fields[g.uniform_int(0, 4)] *= g.chance(0.2) ? 0.0 : -1.0;
  const int n = g.chance(0.3) ? 5 : 4;
  int len = 0;
  for (int k = 0; k < n; ++k) {
    len += std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len),
                         k == 0 ? "%.10g" : " %.10g", fields[k]);
  }
  return buf;
}

void mutate(std::string& line, proptest::Case& g) {
  static constexpr const char* kTokens[] = {"inf", "nan", "-inf", "x", "e", "e5",
                                            "1e-400", "1e400", "+", "-", ".", "0x1p3",
                                            "abc", "\t", "\r"};
  static constexpr char kAlphabet[] = "0123456789+-.eExX \t\rabfinINF";
  constexpr int kLetters = static_cast<int>(sizeof kAlphabet) - 1;
  constexpr int kTokenCount = static_cast<int>(std::size(kTokens));
  const int edits = g.uniform_int(1, 4);
  for (int k = 0; k < edits && !line.empty(); ++k) {
    const auto at =
        static_cast<std::size_t>(g.uniform_int(0, static_cast<int>(line.size()) - 1));
    switch (g.uniform_int(0, 3)) {
      case 0:
        line[at] = kAlphabet[g.uniform_int(0, kLetters - 1)];
        break;
      case 1:
        line.insert(at, 1, kAlphabet[g.uniform_int(0, kLetters - 1)]);
        break;
      case 2:
        line.erase(at, 1);
        break;
      default:
        line.insert(at, kTokens[g.uniform_int(0, kTokenCount - 1)]);
        break;
    }
  }
}

TEST(LineServerDifferential, MutatedLinesMatchTheIstreamOracleOrAListedDelta) {
  int ok = 0, oracle_rejects = 0, invalid = 0;
  std::map<std::string, int> deltas;
  FOR_ALL(20000, 0xF022ULL, g) {
    std::string line = seed_line(g);
    if (g.chance(0.9)) mutate(line, g);
    if (line.empty()) continue;  // blank lines are skipped by both
    const std::string got = serve_line(line);
    SCOPED_TRACE("line '" + line + "' -> '" + got + "'");
    Query oq;
    if (!oracle_parse(line, &oq)) {
      EXPECT_EQ(got.rfind("err ", 0), 0u);
      ++oracle_rejects;
      continue;
    }
    if (!grammar_delta(line).empty()) {
      EXPECT_TRUE(got.rfind("err bad number '", 0) == 0 ||
                  got.rfind("err trailing garbage '", 0) == 0)
          << grammar_delta(line);
      ++deltas[grammar_delta(line)];
      continue;
    }
    if (const QueryError why = oq.validate(); why != QueryError::kNone) {
      EXPECT_EQ(got, std::string("err invalid-query ") + to_string(why));
      ++invalid;
      continue;
    }
    EXPECT_EQ(got, format_decision(fuzz_service().decide_one(oq)));
    ++ok;
  }
  // Every branch of the contract was exercised.
  EXPECT_GT(ok, 2000);
  EXPECT_GT(oracle_rejects, 2000);
  EXPECT_GT(deltas["not-a-whole-literal"], 1000);
  EXPECT_GT(deltas["underflow"], 20);
  EXPECT_GT(deltas["overflow"], 5);
  EXPECT_GT(invalid, 200);
}

TEST(LineServerProperty, EveryAcceptedLineHasAFiniteAnswer) {
  int accepted = 0;
  FOR_ALL(3000, 0xF1A1ULL, g) {
    // The decide_serve domain, beyond it, on its edges, and outside the
    // physical domain (which the server must reject).
    const double d0 = g.chance(0.1) ? 0.0 : std::exp(g.uniform(std::log(1e-3), std::log(1e6)));
    const double v = g.chance(0.05) ? -g.uniform(0.0, 5.0)
                                    : std::exp(g.uniform(std::log(1e-4), std::log(1e3)));
    const double mdata = g.chance(0.1) ? 0.0 : std::exp(g.uniform(std::log(1.0), std::log(1e12)));
    const double rho = g.chance(0.1) ? 0.0 : std::exp(g.uniform(std::log(1e-9), std::log(10.0)));
    char line[200];
    if (g.chance(0.4)) {
      std::snprintf(line, sizeof line, "%.17g %.17g %.17g %.17g %.17g",
                    g.chance(0.05) ? -d0 : d0, v, mdata, rho, g.uniform(-1.0, 500.0));
    } else {
      std::snprintf(line, sizeof line, "%.10g %.10g %.10g %.10g", d0, v, mdata,
                    g.chance(0.05) ? -rho : rho);
    }
    const std::string got = serve_line(line);
    SCOPED_TRACE(std::string("line '") + line + "' -> '" + got + "'");
    if (got.rfind("err ", 0) == 0) {
      EXPECT_EQ(got.rfind("err invalid-query ", 0), 0u);
      continue;
    }
    ASSERT_EQ(got.rfind("ok ", 0), 0u);
    char* p = nullptr;
    const double d_opt = std::strtod(got.c_str() + 3, &p);
    const double utility = std::strtod(p, nullptr);
    EXPECT_TRUE(std::isfinite(d_opt));
    EXPECT_TRUE(std::isfinite(utility));
    ++accepted;
  }
  EXPECT_GT(accepted, 2000);
}

}  // namespace
}  // namespace skyferry::policy

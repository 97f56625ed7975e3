#include "policy/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/throughput_model.h"

namespace skyferry::policy {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(LineServer, AnswersQueriesAndEchoesTheExactDecision) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);

  std::istringstream in("300 10 28e6 2e-3\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 1u);

  Query q;
  q.d0_m = 300.0;
  q.speed_mps = 10.0;
  q.mdata_bytes = 28e6;
  q.rho_per_m = 2e-3;
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], format_decision(service.decide_one(q)));
  EXPECT_EQ(lines[0].rfind("ok ", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find(" exact"), std::string::npos);
}

TEST(LineServer, OptionalMinDistanceOverridesTheTemplate) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);
  std::istringstream in("300 10 28e6 2e-3 40\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 1u);
  Query q;
  q.d0_m = 300.0;
  q.speed_mps = 10.0;
  q.mdata_bytes = 28e6;
  q.rho_per_m = 2e-3;
  q.min_distance_m = 40.0;
  EXPECT_EQ(lines_of(out.str())[0], format_decision(service.decide_one(q)));
}

TEST(LineServer, BatchFramingFlushesOnEndInArrivalOrder) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);

  std::istringstream in(
      "begin\n"
      "300 10 28e6 1e-3\n"
      "300 10 28e6 5e-3\n"
      "end\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 2u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  Query q;
  q.d0_m = 300.0;
  q.speed_mps = 10.0;
  q.mdata_bytes = 28e6;
  q.rho_per_m = 1e-3;
  EXPECT_EQ(lines[0], format_decision(service.decide_one(q)));
  q.rho_per_m = 5e-3;
  EXPECT_EQ(lines[1], format_decision(service.decide_one(q)));
}

TEST(LineServer, ProtocolErrorsAreReportedNotFatal) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);

  std::istringstream in(
      "not a query\n"
      "300 10 28e6 2e-3 40 extra\n"
      "end\n"
      "begin\n"
      "begin\n"
      "end\n"
      "# a comment\n"
      "\n"
      "300 10 28e6 2e-3\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 1u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0].rfind("err ", 0), 0u) << lines[0];       // unparsable
  EXPECT_NE(lines[1].find("trailing garbage"), std::string::npos);
  EXPECT_EQ(lines[2], "err no open batch");
  EXPECT_EQ(lines[3], "err already batching");
  // lines[4] is the good query's "ok ..." (the empty batch flushed
  // nothing), served after every error.
  EXPECT_EQ(lines[4].rfind("ok ", 0), 0u) << lines[4];
}

/// Serve `text` on a banner-less exact-only server; the response lines.
std::vector<std::string> serve(const std::string& text) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);
  std::istringstream in(text);
  std::ostringstream out;
  (void)server.run(in, out);
  return lines_of(out.str());
}

TEST(LineServer, GluedGarbageAfterTheFieldsIsRejected) {
  // A min_d that failed to parse used to leave the stream failed, so the
  // trailing-garbage check never fired and these were answered "ok".
  for (const char* line : {"300 10 28e6 2e-3 abc", "300 10 28e6 2e-3x", "1.2.3 4 5 6",
                           "300 10 28e6 2e-3 40x", "300 10 28e6 1e-4x 40"}) {
    const auto lines = serve(std::string(line) + "\n");
    ASSERT_EQ(lines.size(), 1u) << line;
    EXPECT_EQ(lines[0].rfind("err bad number '", 0), 0u) << line << " -> " << lines[0];
  }
}

TEST(LineServer, FieldGrammarIsOneFiniteNumberPerToken) {
  // Rejected: underflow to zero (istream read it as 0), overflow, inf,
  // nan, hex, a doubled sign.
  for (const char* field : {"1e-400", "1e400", "inf", "nan", "-inf", "0x10", "+-3", "++3", "+"}) {
    const auto lines = serve(std::string("300 10 28e6 ") + field + "\n");
    ASSERT_EQ(lines.size(), 1u) << field;
    EXPECT_EQ(lines[0].rfind("err bad number", 0), 0u) << field << " -> " << lines[0];
  }
  // Accepted: one leading '+', bare fractions, tabs, a CR line ending
  // and subnormals, each read as the same query as the plain spelling.
  const std::string plain = serve("300 10 28e6 2e-3\n").at(0);
  for (const char* line : {"+300 10 28e6 2e-3", "300.\t10 28e6 .002", "300 10 28e6 2e-3\r",
                           "  300 10 +2.8e+7 2E-3  "}) {
    const auto lines = serve(std::string(line) + "\n");
    ASSERT_EQ(lines.size(), 1u) << line;
    EXPECT_EQ(lines[0], plain) << line;
  }
  EXPECT_EQ(serve("300 10 28e6 4.9e-324\n").at(0).rfind("ok ", 0), 0u);
}

TEST(LineServer, InvalidQueriesGetATaggedReason) {
  EXPECT_EQ(serve("-5 0 -1 -1\n"), std::vector<std::string>{"err invalid-query d0-negative"});
  const auto lines = serve(
      "300 0 28e6 2e-3\n"
      "300 -1 28e6 2e-3\n"
      "300 10 -1 2e-3\n"
      "300 10 28e6 -2e-3\n"
      "300 10 28e6 2e-3 -1\n"
      "0 10 0 0 0\n");
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "err invalid-query speed-not-positive");
  EXPECT_EQ(lines[1], "err invalid-query speed-not-positive");
  EXPECT_EQ(lines[2], "err invalid-query mdata-negative");
  EXPECT_EQ(lines[3], "err invalid-query rho-negative");
  EXPECT_EQ(lines[4], "err invalid-query min-d-negative");
  EXPECT_EQ(lines[5].rfind("ok ", 0), 0u) << lines[5];  // zeros are on the boundary, valid
}

TEST(QueryValidate, TagsTheFirstViolationAndRejectsNaN) {
  Query q;
  q.d0_m = 300.0;
  q.speed_mps = 10.0;
  EXPECT_EQ(q.validate(), QueryError::kNone);
  q.speed_mps = std::nan("");
  EXPECT_EQ(q.validate(), QueryError::kNonPositiveSpeed);
  q.d0_m = -1.0;
  EXPECT_EQ(q.validate(), QueryError::kNegativeD0);
  EXPECT_STREQ(to_string(QueryError::kNegativeD0), "d0-negative");
  EXPECT_STREQ(to_string(QueryError::kNone), "none");
}

TEST(LineServer, StatsAndQuitAndEofInsideBatch) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);

  std::istringstream in(
      "300 10 28e6 2e-3\n"
      "stats\n"
      "begin\n"
      "300 10 28e6 1e-3\n");  // EOF with an open batch
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 1u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "stats table=0 exact=1");
  EXPECT_NE(lines[2].find("eof inside open batch (1 queries dropped)"), std::string::npos);
}

TEST(LineServer, BannerAdvertisesTableState) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  const LineServer server(service);  // banner on by default
  std::istringstream in("quit\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 0u);
  EXPECT_NE(out.str().find("# skyferry_decide ready (table=no)"), std::string::npos);
}

}  // namespace
}  // namespace skyferry::policy

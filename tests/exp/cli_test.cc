#include "exp/cli.h"

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace skyferry::exp {
namespace {

// argv helper: gtest owns the strings, parse() reads char**.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : store_(std::move(args)) {
    ptrs_.push_back(const_cast<char*>("bench"));
    for (auto& s : store_) ptrs_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> store_;
  std::vector<char*> ptrs_;
};

struct StdFlags {
  std::uint64_t seed{1};
  int trials{2000};
  int threads{0};
  double scale{1.5};
  std::string out{"run.csv"};
  Cli cli{"bench"};

  StdFlags() {
    cli.flag("--seed", &seed, "master seed")
        .flag("--trials", &trials, "trials per point")
        .flag("--threads", &threads, "worker threads (0 = hardware)")
        .flag("--scale", &scale, "scale factor")
        .flag("--out", &out, "output csv");
  }
};

TEST(Cli, ParsesSpaceAndEqualsForms) {
  StdFlags f;
  Args a({"--seed", "42", "--trials=500", "--threads", "8", "--scale=2.25", "--out=x.csv"});
  f.cli.parse(a.argc(), a.argv());
  EXPECT_EQ(f.seed, 42u);
  EXPECT_EQ(f.trials, 500);
  EXPECT_EQ(f.threads, 8);
  EXPECT_DOUBLE_EQ(f.scale, 2.25);
  EXPECT_EQ(f.out, "x.csv");

  // Each type's range extremes, and one leading '+'.
  Args edge({"--trials=-2147483648", "--seed=18446744073709551615", "--scale=+1e-300",
             "--threads=+8"});
  f.cli.parse(edge.argc(), edge.argv());
  EXPECT_EQ(f.trials, INT_MIN);
  EXPECT_EQ(f.seed, UINT64_MAX);
  EXPECT_EQ(f.scale, 1e-300);
  EXPECT_EQ(f.threads, 8);
}

TEST(Cli, AbsentFlagsKeepDefaults) {
  StdFlags f;
  Args a({"--seed", "9"});
  f.cli.parse(a.argc(), a.argv());
  EXPECT_EQ(f.seed, 9u);
  EXPECT_EQ(f.trials, 2000);
  EXPECT_EQ(f.out, "run.csv");
}

TEST(Cli, UnknownFlagIsAnErrorNotSilence) {
  StdFlags f;
  Args a({"--sead", "42"});  // the typo the old strcmp loops swallowed
  EXPECT_THROW(f.cli.parse(a.argc(), a.argv()), CliError);
}

TEST(Cli, MalformedValuesAreTypedErrors) {
  const std::vector<std::vector<std::string>> bad = {
      {"--trials", "20x0"},
      {"--seed", "-3"},  // seed is unsigned
      {"--scale", "fast"},
      {"--trials"},  // dangling flag
      // Out of range or not finite: each once parsed into a wrong number.
      {"--trials=4294967297"},   // wrapped to 1
      {"--trials=-2147483649"},  // clamped to INT_MAX
      {"--seed", " -5"},         // wrapped to 18446744073709551611
      {"--seed=18446744073709551616"},
      {"--scale=nan"},
      {"--scale=inf"},
      {"--scale=1e999"},
      // One leading '+' is the only decoration a number may carry.
      {"--trials= 5"},
      {"--trials=+-5"},
      {"--scale=+"},
  };
  for (const auto& args : bad) {
    StdFlags f;
    Args a(args);
    EXPECT_THROW(f.cli.parse(a.argc(), a.argv()), CliError) << args.back();
    EXPECT_EQ(f.trials, 2000) << args.back();
    EXPECT_EQ(f.seed, 1u) << args.back();
    EXPECT_EQ(f.scale, 1.5) << args.back();
  }
}

TEST(Cli, DuplicateFlagRegistrationThrows) {
  int x = 0;
  Cli cli("bench");
  cli.flag("--x", &x, "x");
  EXPECT_THROW(cli.flag("--x", &x, "again"), CliError);
}

TEST(Cli, FlagsMustStartWithDashes) {
  int x = 0;
  Cli cli("bench");
  EXPECT_THROW(cli.flag("x", &x, "no dashes"), CliError);
}

TEST(Cli, UsageListsEveryFlagWithDefault) {
  StdFlags f;
  const std::string u = f.cli.usage();
  for (const char* needle : {"--seed", "--trials", "--threads", "--scale", "--out", "run.csv"})
    EXPECT_NE(u.find(needle), std::string::npos) << needle;
}

// ---- bool flags -------------------------------------------------------------

struct BoolFlags {
  bool resume{false};
  bool fail_fast{false};
  bool verbose{true};
  int trials{10};
  Cli cli{"bench"};

  BoolFlags() {
    cli.flag("--resume", &resume, "resume from checkpoint")
        .flag("--fail-fast", &fail_fast, "abort on first failure")
        .flag("--verbose", &verbose, "narrate")
        .flag("--trials", &trials, "trials");
  }
};

TEST(Cli, BareBoolFlagSetsTrueWithoutConsumingNextToken) {
  BoolFlags f;
  Args a({"--resume", "--trials", "7"});
  f.cli.parse(a.argc(), a.argv());
  EXPECT_TRUE(f.resume);
  EXPECT_EQ(f.trials, 7);  // "--trials" was NOT eaten as --resume's value
}

TEST(Cli, BoolEqualsFormsParse) {
  BoolFlags f;
  Args a({"--resume=true", "--fail-fast=1", "--verbose=false"});
  f.cli.parse(a.argc(), a.argv());
  EXPECT_TRUE(f.resume);
  EXPECT_TRUE(f.fail_fast);
  EXPECT_FALSE(f.verbose);
  BoolFlags g;
  Args b({"--fail-fast=0"});
  g.cli.parse(b.argc(), b.argv());
  EXPECT_FALSE(g.fail_fast);
}

TEST(Cli, BoolRejectsNonBooleanValues) {
  BoolFlags f;
  Args a({"--resume=yes"});
  EXPECT_THROW(f.cli.parse(a.argc(), a.argv()), CliError);
}

TEST(Cli, BoolUsageAndValueStrings) {
  BoolFlags f;
  EXPECT_NE(f.cli.usage().find("[--resume[=true|false]]"), std::string::npos);
  const auto values = f.cli.flag_values();
  EXPECT_EQ(values[0], (std::pair<std::string, std::string>{"resume", "false"}));
  EXPECT_EQ(values[2], (std::pair<std::string, std::string>{"verbose", "true"}));
}

// ---- replay round-trip ------------------------------------------------------

// Split a replay command into argv tokens (no quoting: flag values in
// this suite contain no whitespace).
std::vector<std::string> Tokenize(const std::string& command) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : command) {
    if (c == ' ') {
      if (!cur.empty()) tokens.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) tokens.push_back(cur);
  return tokens;
}

TEST(Cli, ReplayCommandRoundTripsSeedAndThreads) {
  StdFlags first;
  Args a({"--seed", "1234567890123", "--threads", "8", "--scale=0.125"});
  first.cli.parse(a.argc(), a.argv());

  // Feeding the replay command back through a fresh Cli must reproduce
  // every parsed value exactly — that is what makes the header a replay.
  auto tokens = Tokenize(first.cli.replay_command());
  ASSERT_FALSE(tokens.empty());
  EXPECT_EQ(tokens.front(), "bench");
  tokens.erase(tokens.begin());
  StdFlags second;
  Args replay(tokens);
  second.cli.parse(replay.argc(), replay.argv());
  EXPECT_EQ(second.seed, first.seed);
  EXPECT_EQ(second.trials, first.trials);
  EXPECT_EQ(second.threads, first.threads);
  EXPECT_DOUBLE_EQ(second.scale, first.scale);
  EXPECT_EQ(second.out, first.out);
}

TEST(Cli, ReplayCommandRoundTripsBoolFlags) {
  // Bool flags print as --name=value in the replay command, so feeding
  // it back never mis-parses the next token as a value.
  BoolFlags first;
  Args a({"--fail-fast", "--verbose=false", "--trials", "3"});
  first.cli.parse(a.argc(), a.argv());
  const std::string cmd = first.cli.replay_command();
  EXPECT_NE(cmd.find("--fail-fast=true"), std::string::npos);
  EXPECT_NE(cmd.find("--verbose=false"), std::string::npos);

  auto tokens = Tokenize(cmd);
  tokens.erase(tokens.begin());
  BoolFlags second;
  Args replay(tokens);
  second.cli.parse(replay.argc(), replay.argv());
  EXPECT_EQ(second.resume, first.resume);
  EXPECT_EQ(second.fail_fast, first.fail_fast);
  EXPECT_EQ(second.verbose, first.verbose);
  EXPECT_EQ(second.trials, first.trials);
}

TEST(Cli, FlagValuesReflectParsedStateInRegistrationOrder) {
  StdFlags f;
  Args a({"--seed", "77", "--out", "y.csv"});
  f.cli.parse(a.argc(), a.argv());
  const auto values = f.cli.flag_values();
  ASSERT_EQ(values.size(), 5u);
  EXPECT_EQ(values[0], (std::pair<std::string, std::string>{"seed", "77"}));
  EXPECT_EQ(values[1].first, "trials");
  EXPECT_EQ(values[1].second, "2000");  // untouched default
  EXPECT_EQ(values[4], (std::pair<std::string, std::string>{"out", "y.csv"}));
}

}  // namespace
}  // namespace skyferry::exp

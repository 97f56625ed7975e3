// decide_serve: one closed-loop client drives policy::LineServer over
// in-memory streams. It sends a 256-query begin/end batch, waits for
// the batch's answers, checks them, and only then sends the next — the
// pattern of a campaign script that blocks on its replies.
//
// The service loads a compiled PolicyTable (set-up); queries span the
// table's domain and about 5% carry a valid d0 beyond it, which takes
// the exact fallback. Every query is valid.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/throughput_model.h"
#include "policy/api.h"
#include "policy/compiler.h"
#include "policy/server.h"
#include "policy/service.h"
#include "policy/table.h"

namespace e2ebench {
namespace {

using namespace skyferry;

constexpr int kBatch = 256;
/// Distinct seeded batches per pass.
constexpr int kBatches = 256;
/// Timed passes a run makes at least: 1024 round trips, enough for a
/// p99 with 10 samples beyond it.
constexpr int kMinPasses = 4;
constexpr int kWarmupBatches = 128;
constexpr double kBeyondTableFraction = 0.05;

/// The table skyferry_policy_compile builds for --platform quadrocopter:
/// the quadrocopter log2 fit on the default compile grid. Compiled on
/// one thread before the timed region (about 2 s).
policy::CompilerConfig compiler_config() {
  policy::CompilerConfig cfg;
  cfg.model = {-10.5, 73.0, 1e6, 20.0, "paper-quadrocopter"};
  cfg.threads = 1;
  return cfg;
}

/// A loaded service: what a skyferry_decide process holds after start-up.
struct Service {
  core::PaperLogThroughput model;
  policy::DecisionService service;

  explicit Service(const policy::TableModelSpec& m)
      : model(m.a, m.b, m.name, m.scale, m.min_distance_m), service(model) {}
};

struct Setup {
  std::unique_ptr<Service> svc;
  double load_s{0.0};
  double total_s{0.0};
};

Setup load_service(const std::string& table_path) {
  Setup s;
  const auto t0 = Clock::now();
  policy::PolicyTable table = policy::PolicyTable::load(table_path);
  const auto t1 = Clock::now();
  s.svc = std::make_unique<Service>(table.model());
  s.svc->service.install_table(std::move(table));
  const auto t2 = Clock::now();
  s.load_s = seconds_between(t0, t1);
  s.total_s = seconds_between(t0, t2);
  return s;
}

struct Batch {
  std::string request;  ///< "begin\n" + one line per query + "end\n"
  /// (d0, v, mdata, rho) per line: exactly the doubles the server parses.
  std::vector<std::array<double, 4>> fields;

  [[nodiscard]] std::size_t size() const noexcept { return fields.size(); }
  /// The batch as the Query span LineServer hands to decide().
  void queries(std::vector<policy::Query>& out) const {
    out.assign(fields.size(), policy::Query{});
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out[i].d0_m = fields[i][0];
      out[i].speed_mps = fields[i][1];
      out[i].mdata_bytes = fields[i][2];
      out[i].rho_per_m = fields[i][3];
    }
  }
};

/// Seeded batches spanning the compiled domain (axis by axis, log axes
/// in log space); kBeyondTableFraction of them get d0 past the table.
std::vector<Batch> make_batches(const policy::CompilerConfig& cc, std::uint64_t seed) {
  InputRng rng(seed);
  std::vector<Batch> batches(kBatches);
  char line[160];
  for (Batch& b : batches) {
    b.request = "begin\n";
    for (int i = 0; i < kBatch; ++i) {
      const bool beyond = rng.uniform() < kBeyondTableFraction;
      const double d0 = beyond ? rng.uniform(cc.d0.hi * 1.01, cc.d0.hi * 1.5)
                               : rng.uniform(cc.d0.lo, cc.d0.hi);
      const double v = rng.uniform(cc.speed.lo, cc.speed.hi);
      const double mdata = rng.log_uniform(cc.mdata.lo, cc.mdata.hi);
      const double rho = rng.log_uniform(cc.rho.lo, cc.rho.hi);
      const int len = std::snprintf(line, sizeof line, "%.10g %.10g %.10g %.10g", d0, v, mdata,
                                    rho);
      b.request.append(line, static_cast<std::size_t>(len));
      b.request += '\n';
      // Parse the text back so the client knows the exact doubles the
      // server received.
      std::array<double, 4> f{};
      char* p = line;
      for (double& x : f) x = std::strtod(p, &p);
      b.fields.push_back(f);
    }
    b.request += "end\n";
  }
  return batches;
}

struct Answers {
  /// One entry per response line, in order (NaN for a line that is not
  /// a well-formed finite answer).
  std::vector<double> d_opt;
  std::vector<double> utility;
  std::uint64_t err_lines{0};
  std::uint64_t bad{0};  ///< malformed, non-finite or missing answers
};

/// Parse a batch's response: one line per query, either
/// "ok <d_opt> <utility> <cdelay> <discount> <boundary> <backend>" or
/// "err <message>". Anything else, an answer with a non-finite or
/// missing number, and each query left without a line count as bad.
Answers parse_answers(const std::string& text, std::size_t expected) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Answers a;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    double fields[4] = {kNaN, kNaN, kNaN, kNaN};
    if (line.rfind("err", 0) == 0) {
      ++a.err_lines;
    } else if (line.rfind("ok ", 0) != 0) {
      ++a.bad;
    } else {
      const char* p = line.c_str() + 3;
      char* next = nullptr;
      bool finite = true;
      for (double& f : fields) {
        f = std::strtod(p, &next);
        finite = finite && next != p && std::isfinite(f);
        p = next;
      }
      if (!finite) ++a.bad;
    }
    a.d_opt.push_back(fields[0]);
    a.utility.push_back(fields[1]);
  }
  if (a.utility.size() < expected) a.bad += expected - a.utility.size();
  return a;
}

struct BatchResult {
  double rtt_s{0.0};
  Answers answers;
};

std::string serve_batch_text(const policy::LineServer& server, const Batch& b) {
  std::istringstream in(b.request);
  std::ostringstream out;
  (void)server.run(in, out);
  return out.str();
}

BatchResult serve_batch(const policy::LineServer& server, const Batch& b) {
  BatchResult r;
  const auto t0 = Clock::now();
  const std::string response = serve_batch_text(server, b);
  r.rtt_s = seconds_between(t0, Clock::now());
  r.answers = parse_answers(response, b.size());
  return r;
}

/// Scratch file for the compiled table, inside the working directory.
class ScratchTable {
 public:
  ScratchTable() {
    std::filesystem::path dir = std::filesystem::current_path() / ".bench_build" / "tmp";
    std::filesystem::create_directories(dir);
    path_ = (dir / ("policy_table_" + std::to_string(::getpid()) + ".json")).string();
  }
  ~ScratchTable() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  ScratchTable(const ScratchTable&) = delete;
  ScratchTable& operator=(const ScratchTable&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Seeded accuracy sample (every 4th query of the first batch): each
/// served utility must be within 2% of the exact solver's.
void check_accuracy(const std::vector<Batch>& batches, const Answers& served, const Service& svc,
                    Report& report) {
  constexpr double kMaxRegret = 0.02;
  policy::DecisionService exact(svc.model);
  std::vector<policy::Query> qs;
  batches.front().queries(qs);
  double worst = 0.0;
  std::size_t sampled = 0, over = 0;
  char first_over[200] = "";
  for (std::size_t i = 0; i < qs.size() && i < served.utility.size(); i += 4) {
    const policy::Decision e = exact.decide_one(qs[i]);
    const double rel = std::abs(served.utility[i] - e.utility) / std::max(std::abs(e.utility), 1e-300);
    if (!(rel <= kMaxRegret) && over++ == 0) {
      std::snprintf(first_over, sizeof first_over, "; first: d0=%.10g v=%.10g mdata=%.10g rho=%.10g",
                    qs[i].d0_m, qs[i].speed_mps, qs[i].mdata_bytes, qs[i].rho_per_m);
    }
    worst = std::max(worst, rel);
    ++sampled;
  }
  char detail[320];
  std::snprintf(detail, sizeof detail, "%zu queries: worst utility gap %.4g, %zu above 2%%%s",
                sampled, worst, over, first_over);
  report.check("served_within_2pct_of_exact", sampled > 0 && over == 0, detail);
}

void account(const BatchResult& r, std::size_t queries, Report& report, std::uint64_t* err_lines) {
  const std::uint64_t failed = std::min<std::uint64_t>(r.answers.err_lines + r.answers.bad, queries);
  report.count_op(true, queries - failed);
  report.count_op(false, failed);
  *err_lines += r.answers.err_lines;
}

}  // namespace

void run_decide_serve(const RunArgs& args, Report& report) {
  const policy::CompilerConfig cc = compiler_config();
  ScratchTable file;
  const auto c0 = Clock::now();
  const policy::PolicyTable compiled = policy::Compiler(cc).compile();
  const double compile_s = seconds_between(c0, Clock::now());
  compiled.save_atomic(file.path());
  const auto start = Clock::now();  // --seconds counts from here

  // Set-up is what a server process pays at start: load the table,
  // build the service, install.
  CpuRotation cpus;
  const auto set_up = [&] {
    const Setup s = load_service(file.path());
    if (args.trace) report.add("io.table_load_s", s.load_s);
    return s.total_s;
  };
  const Setup setup = load_service(file.path());
  const Service& svc = *setup.svc;
  policy::ServerOptions opt;
  opt.banner = false;
  const policy::LineServer server(svc.service, opt);
  const std::vector<Batch> batches = make_batches(cc, args.seed);

  std::uint64_t err_lines = 0;
  // Warm-up: the first kWarmupBatches batches, answers checked, timings
  // discarded. Shorter than a pass, so the timed passes get the time:
  // every extra pass is one more sample in each batch's best-of.
  Answers served0;
  for (int i = 0; i < kWarmupBatches; ++i) {
    BatchResult r = serve_batch(server, batches[static_cast<std::size_t>(i)]);
    account(r, kBatch, report, &err_lines);
    if (i == 0) served0 = std::move(r.answers);
  }
  check_accuracy(batches, served0, svc, report);

  if (!args.trace) {
    report.reserve("op_us", kBatches * kReservedPasses);
    double setup_wall_s = 0.0;
    int passes = 0;
    do {
      // Loading the default-grid table on every CPU takes seconds, so a
      // set-up repetition runs only while set-up has used less than a
      // third of the run: the repetitions stay spread over the run
      // without crowding out passes, each of which is one more sample
      // in every batch's best-of.
      if (setup_wall_s < seconds_between(start, Clock::now()) / 3.0) {
        const auto s0 = Clock::now();
        report.add("setup_s", best_setup_s(cpus, set_up));
        setup_wall_s += seconds_between(s0, Clock::now());
      }
      cpus.next();
      for (const Batch& b : batches) {
        const BatchResult r = serve_batch(server, b);
        account(r, b.size(), report, &err_lines);
        report.add("op_us", r.rtt_s * 1e6);
      }
    } while (++passes < kMinPasses || seconds_between(start, Clock::now()) < args.seconds);
    report.set("ops_per_pass", kBatches);
    report.set("items_per_pass", static_cast<double>(kBatches) * kBatch);
    report.check("no_err_lines", err_lines == 0, std::to_string(err_lines) + " err lines");
    return;
  }

  for (int round = 0; round < kTraceRounds; ++round) (void)best_setup_s(cpus, set_up);

  // Traced run: rounds of an untraced pass and a traced pass that also
  // times decide() on each already-parsed batch, whole and split by
  // table_eligible(), outside the round-trip span. trace_overhead_frac
  // compares the two passes' whole wall clocks, probes included.
  const policy::DecisionService::Counters before = svc.service.counters();
  double traced_rtt = 0.0, decide_s = 0.0, table_s = 0.0, exact_s = 0.0;
  std::size_t n_table = 0, n_exact = 0;
  std::vector<policy::Decision> out;
  std::vector<policy::Query> queries, eligible, fallback;
  for (int round = 0; round < kTraceRounds; ++round) {
    cpus.next();
    const auto u0 = Clock::now();
    for (const Batch& b : batches) {
      const BatchResult r = serve_batch(server, b);
      account(r, b.size(), report, &err_lines);
    }
    const auto t0 = Clock::now();
    for (const Batch& b : batches) {
      const BatchResult r = serve_batch(server, b);
      account(r, b.size(), report, &err_lines);
      traced_rtt += r.rtt_s;
      report.add("server.batch_us", r.rtt_s * 1e6);

      b.queries(queries);
      out.resize(queries.size());
      auto a = Clock::now();
      svc.service.decide(queries, out);
      decide_s += seconds_between(a, Clock::now());

      eligible.clear();
      fallback.clear();
      for (const policy::Query& q : queries)
        (svc.service.table_eligible(q) ? eligible : fallback).push_back(q);
      out.resize(eligible.size());
      a = Clock::now();
      svc.service.decide(eligible, out);
      table_s += seconds_between(a, Clock::now());
      out.resize(fallback.size());
      a = Clock::now();
      svc.service.decide(fallback, out);
      exact_s += seconds_between(a, Clock::now());
      n_table += eligible.size();
      n_exact += fallback.size();
    }
    const auto t1 = Clock::now();
    report.add("trace_overhead_frac", seconds_between(t0, t1) / seconds_between(u0, t0) - 1.0);
  }
  const policy::DecisionService::Counters after = svc.service.counters();
  const double hits = static_cast<double>(after.table - before.table);
  const double total = hits + static_cast<double>(after.exact - before.exact);

  report.set("server.self_frac", 1.0 - decide_s / traced_rtt);
  report.set("server.err_lines", static_cast<double>(err_lines));
  report.set("policy.table_ns", n_table > 0 ? table_s * 1e9 / static_cast<double>(n_table) : 0.0);
  report.set("policy.decide_exact_us",
             n_exact > 0 ? exact_s * 1e6 / static_cast<double>(n_exact) : 0.0);
  report.set("policy.table_hit_ratio", total > 0.0 ? hits / total : 0.0);
  report.set("policy.compile_s", compile_s);
  report.check("no_err_lines", err_lines == 0, std::to_string(err_lines) + " err lines");
}

void self_check_serve_counting(Report& report) {
  // Four valid queries and a line the server rejects, answered by the
  // exact solver (no table): one err line and four ok lines.
  const Service svc(compiler_config().model);
  policy::ServerOptions opt;
  opt.banner = false;
  const policy::LineServer server(svc.service, opt);
  Batch b;
  b.request = "begin\n100 10 1e7 1e-4\n200 5 5e6 1e-3\n1 2\n300 20 1e8 1e-5\n400 2 2e6 2e-4\nend\n";
  b.fields.resize(5);
  const std::string served = serve_batch_text(server, b);

  const auto run_case = [&](const std::string& name, const std::string& response) {
    BatchResult r;
    r.answers = parse_answers(response, b.size());
    Report c("self_check");
    std::uint64_t err_lines = 0;
    account(r, b.size(), c, &err_lines);
    record_case(name, c, report);
  };
  run_case("serve.invalid_query", served);
  // Cut in the middle of the fourth line: that answer is malformed and
  // the fifth is missing.
  std::size_t cut = 0;
  for (int i = 0; i < 3; ++i) cut = served.find('\n', cut) + 1;
  run_case("serve.truncated", served.substr(0, cut + 5));
  // The first ok line's d_opt replaced by nan.
  const std::size_t num = served.find("ok ") + 3;
  std::string non_finite = served;
  non_finite.replace(num, served.find(' ', num) - num, "nan");
  run_case("serve.non_finite", non_finite);
}

}  // namespace e2ebench

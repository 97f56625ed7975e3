// Shared plumbing of the end-to-end benchmark driver: run arguments,
// the seeded input generator, wall-clock helpers, and the raw report
// the driver prints for run.py to reduce into metrics.
//
// The driver never computes medians or percentiles itself: it reports
// raw samples ("series") and scalars ("values"), and run.py reduces
// them with the helpers in benchlib.py, which carry their own tests.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// Input generator (splitmix64). Deliberately independent of the
/// program's own sim::Rng, so a change to the simulator's RNG can never
/// change what the benchmark feeds it.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) noexcept : state_(seed ^ 0x6a09e667f3bcc909ULL) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }
  double log_uniform(double lo, double hi) noexcept {
    return std::exp(uniform(std::log(lo), std::log(hi)));
  }
  /// Exponential with the given rate (> 0).
  double exponential(double rate) noexcept { return -std::log1p(-uniform()) / rate; }

 private:
  std::uint64_t state_;
};

/// What one driver invocation measured. Printed as one JSON object on
/// stdout; run.py turns it into the benchmark's result line.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// One operation of the workload's unit of work (a sweep, a served
  /// decision, a trial); `ok == false` counts it as failed.
  void count_op(bool ok, std::uint64_t n = 1) {
    attempted_ += n;
    if (!ok) failed_ += n;
  }
  /// An output check. Any failed check fails the whole run.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void add(const std::string& series, double v) { series_[series].push_back(v); }
  /// Pre-size a series, so growing it never reallocates and doubles the
  /// driver's own footprint in peak_rss_mb.
  void reserve(const std::string& series, std::size_t n) { series_[series].reserve(n); }
  void set(const std::string& key, double v) { values_[key] = v; }
  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) > 0; }
  /// Append another report's operations, checks and series samples
  /// (its values overwrite this report's).
  void merge(const Report& other);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  void print(std::FILE* out) const;

 private:
  struct CheckResult {
    std::string name;
    bool ok{false};
    std::string detail;
  };
  std::string workload_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::vector<CheckResult> checks_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> values_;
};

/// Record one self-check case: its counts go into `into` as
/// "<name>.attempted" / "<name>.failed" and add to its totals.
inline void record_case(const std::string& name, const Report& c, Report& into) {
  into.set(name + ".attempted", static_cast<double>(c.attempted()));
  into.set(name + ".failed", static_cast<double>(c.failed()));
  into.count_op(true, c.attempted() - c.failed());
  into.count_op(false, c.failed());
}

/// Peak resident set of this process [MB].
[[nodiscard]] double peak_rss_mb();

/// Moves the driver's one thread to the next CPU of its affinity mask
/// before each pass. On a shared host one CPU can run the same code up
/// to 2x slower for tens of seconds while another runs at full speed;
/// rotating lets each operation's best-of-passes latency (run.py) come
/// from an uncontended CPU, instead of the whole run inheriting the
/// state of whichever CPU the scheduler happened to pick.
class CpuRotation {
 public:
  CpuRotation();
  /// Pin to the next CPU (no-op when only one is allowed).
  void next();
  [[nodiscard]] std::size_t size() const noexcept { return cpus_.empty() ? 1 : cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t next_{0};
};

/// The CPUs that concurrent pass replicas pin to, one each: all but one
/// of the calling thread's allowed CPUs (the spare serves the OS and
/// the waiting parent), at most kMaxReplicas; empty if the mask is
/// unknown (then one replica runs unpinned). Replicas on separate CPUs
/// multiply the timed passes a run gets, and with them each operation's
/// chances to meet an uncontended CPU, without slowing one another
/// measurably (on a 4-vCPU host: 15-16 passes each for two concurrent
/// replicas, 14 alone, at the same per-op bests).
inline constexpr std::size_t kMaxReplicas = 3;
[[nodiscard]] std::vector<int> replica_cpus();
/// Pin the calling thread to `cpu` (best effort: timing only).
void pin_thread(int cpu);

/// One set-up repetition: run `setup` (which returns its own duration
/// [s]) once on each CPU of the rotation and keep the best, for the same
/// reason operations keep their best of passes. Untraced decide_serve
/// and mc_campaign runs make one repetition before each pass (on
/// decide_serve, while set-up has used under a third of the run), so
/// set-up is sampled across the whole run like the operations; setup_s
/// is the median.
template <class Fn>
double best_setup_s(CpuRotation& cpus, Fn&& setup) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    cpus.next();
    best = std::min(best, setup());
  }
  return best;
}

/// Capacity reserved for a run's per-op latencies, in passes.
inline constexpr std::size_t kReservedPasses = 64;

/// Rounds of a traced run. Each round runs an untraced and a traced pass
/// back to back on one CPU (rotating between rounds); ratios between the
/// two are taken within a round and reported as a series (run.py takes
/// the median).
inline constexpr int kTraceRounds = 3;

/// Repeat `fn` (which performs `calls_per_rep` calls of the probed
/// function) until at least `min_s` wall seconds have passed; return the
/// mean cost of one call [ns].
template <class Fn>
double probe_ns(Fn&& fn, std::size_t calls_per_rep, double min_s = 0.05) {
  if (calls_per_rep == 0) return 0.0;
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++reps;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < min_s);
  return elapsed * 1e9 / static_cast<double>(reps * calls_per_rep);
}

/// Keep a computed value alive so the optimizer cannot drop the probe.
template <class T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// Workload entry points (one translation unit each).
void run_fleet_wifi_dense(const RunArgs& args, Report& report);
void run_fleet_multilink_chaos(const RunArgs& args, Report& report);
void run_decide_serve(const RunArgs& args, Report& report);
void run_mc_campaign(const RunArgs& args, Report& report);

// Self-checks of each workload's operation counting on synthetic
// failing input (`e2ebench_driver --self-check`). Each records, per
// case, "<case>.attempted" and "<case>.failed" in `report`.
void self_check_serve_counting(Report& report);
void self_check_fleet_counting(Report& report);
void self_check_campaign_counting(Report& report);

}  // namespace e2ebench

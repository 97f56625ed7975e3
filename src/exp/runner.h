// The engine's execution core: fan N deterministic trials per sweep
// point across a ThreadPool. Per-trial seeds come from
// sim::fork(seed, point_index, trial_index) and every result lands in a
// pre-assigned [point][trial] slot, so the output is bit-identical for
// any thread count and any scheduling order — the parallelism is pure
// wall-clock. Trials are enqueued in contiguous chunks (no work
// stealing) to amortize queue traffic on cheap trials.
//
// Failure policy: a trial that throws no longer aborts the campaign.
// Every exception is captured into a TrialFailure record (point, trial,
// forked seed, type, message), the slot keeps its default value, and
// the counts surface in RunStats. Set RunnerConfig::fail_fast to get
// the old abort-on-first-exception behavior back; for retries,
// quarantine, deadlines, and checkpoint/resume, use SupervisedRunner
// (exp/supervisor.h).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/run_stats.h"
#include "exp/sweep.h"
#include "exp/thread_pool.h"
#include "sim/rng.h"
#include "stats/quantile.h"

namespace skyferry::exp {

struct RunnerConfig {
  int threads{0};  ///< <= 0: one worker per hardware thread
  int trials{1};   ///< seeded trials per sweep point
  std::uint64_t seed{1};
  /// Trials per enqueued task; <= 0 picks ~4 chunks per worker per point
  /// (small enough to balance, big enough to amortize queueing).
  int chunk{0};
  /// Old behavior: rethrow the first trial exception after all in-flight
  /// work drains, instead of recording failures and carrying on.
  bool fail_fast{false};
};

/// Results of one engine run: results[point_index][trial_index] plus the
/// timing sidecar. The result grid is deterministic; stats are not.
template <class T>
struct RunResult {
  std::vector<std::vector<T>> results;
  RunStats stats;

  /// Flat view helper: all trials of one point.
  [[nodiscard]] const std::vector<T>& point(std::size_t i) const { return results.at(i); }
};

/// Timing sidecar shared by Runner and SupervisedRunner: wall time,
/// throughput, occupancy, per-point latency quantiles.
inline RunStats make_run_stats(const RunnerConfig& cfg, const std::vector<Point>& points,
                               const std::vector<std::vector<double>>& latency_ms, int workers,
                               int chunk, double wall_s) {
  RunStats st;
  st.threads = workers;
  st.points = points.size();
  st.trials_per_point = cfg.trials;
  st.seed = cfg.seed;
  st.chunk = chunk;
  st.wall_s = wall_s;
  double total_ms = 0.0;
  for (const auto& row : latency_ms)
    for (double ms : row) total_ms += ms;
  st.total_trial_s = total_ms / 1e3;
  const double total_trials = static_cast<double>(points.size()) * cfg.trials;
  st.trials_per_s = wall_s > 0.0 ? total_trials / wall_s : 0.0;
  st.occupancy = (wall_s > 0.0 && workers > 0) ? st.total_trial_s / (wall_s * workers) : 0.0;
  st.speedup_vs_serial = wall_s > 0.0 ? st.total_trial_s / wall_s : 0.0;
  st.per_point.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    auto sorted = latency_ms[p];
    std::sort(sorted.begin(), sorted.end());
    PointStats ps;
    ps.point_index = points[p].index;
    ps.label = points[p].label();
    ps.trials = cfg.trials;
    if (!sorted.empty()) {
      ps.p50_ms = stats::quantile_sorted(sorted, 0.50);
      ps.p99_ms = stats::quantile_sorted(sorted, 0.99);
    }
    st.per_point.push_back(std::move(ps));
  }
  return st;
}

class Runner {
 public:
  explicit Runner(RunnerConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] const RunnerConfig& config() const noexcept { return cfg_; }

  /// Run `fn(point, trial_seed)` for every (point, trial) pair. A trial
  /// that throws is recorded in RunResult::stats (counts + TrialFailure
  /// records) and its slot keeps the default value; with
  /// cfg.fail_fast the first exception is rethrown here after all
  /// in-flight work finishes.
  template <class TrialFn>
  auto run(const std::vector<Point>& points, TrialFn&& fn)
      -> RunResult<std::invoke_result_t<TrialFn&, const Point&, std::uint64_t>> {
    using T = std::invoke_result_t<TrialFn&, const Point&, std::uint64_t>;
    static_assert(!std::is_void_v<T>, "trial function must return a value");
    static_assert(!std::is_same_v<T, bool>,
                  "return int, not bool: vector<bool> packs bits and concurrent slot writes race");

    const int trials = cfg_.trials > 0 ? cfg_.trials : 0;
    RunResult<T> out;
    out.results.assign(points.size(), {});
    for (auto& row : out.results) row.resize(static_cast<std::size_t>(trials));

    ThreadPool pool(cfg_.threads);
    const int workers = pool.size();
    const int chunk = cfg_.chunk > 0
                          ? cfg_.chunk
                          : std::max(1, trials / std::max(1, workers * 4));

    // One latency slot per trial, written lock-free by pre-assignment.
    std::vector<std::vector<double>> latency_ms(points.size());
    for (auto& row : latency_ms) row.resize(static_cast<std::size_t>(trials), 0.0);

    std::mutex failures_mu;
    std::vector<TrialFailure> failures;
    std::exception_ptr first_error;

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<void>> futures;
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (int start = 0; start < trials; start += chunk) {
        const int end = std::min(start + chunk, trials);
        futures.push_back(pool.submit([&, p, start, end]() {
          const Point& pt = points[p];
          for (int t = start; t < end; ++t) {
            const std::uint64_t seed =
                sim::fork(cfg_.seed, pt.index, static_cast<std::uint64_t>(t));
            const auto s0 = std::chrono::steady_clock::now();
            try {
              out.results[p][static_cast<std::size_t>(t)] = fn(pt, seed);
            } catch (...) {
              TrialFailure f;
              f.kind = TrialFailure::Kind::kCrashed;
              f.point = pt.index;
              f.trial = t;
              f.seed = seed;
              f.quarantined = true;
              f.point_label = pt.label();
              describe_current_exception(f.type, f.what);
              const std::lock_guard<std::mutex> lock(failures_mu);
              if (!first_error) first_error = std::current_exception();
              failures.push_back(std::move(f));
            }
            const auto s1 = std::chrono::steady_clock::now();
            latency_ms[p][static_cast<std::size_t>(t)] =
                std::chrono::duration<double, std::milli>(s1 - s0).count();
          }
        }));
      }
    }

    // Drain everything before returning so no task touches freed state.
    for (auto& f : futures) f.get();
    const auto t1 = std::chrono::steady_clock::now();
    if (cfg_.fail_fast && first_error) std::rethrow_exception(first_error);

    out.stats = make_run_stats(cfg_, points, latency_ms, workers, chunk,
                               std::chrono::duration<double>(t1 - t0).count());
    std::sort(failures.begin(), failures.end(), [](const TrialFailure& a, const TrialFailure& b) {
      return a.point != b.point ? a.point < b.point : a.trial < b.trial;
    });
    out.stats.failed_trials = static_cast<int>(failures.size());
    out.stats.crashed = static_cast<int>(failures.size());
    out.stats.quarantined = static_cast<int>(failures.size());
    out.stats.failures = std::move(failures);
    return out;
  }

  /// Sweep-less convenience: N trials of a single implicit point.
  template <class TrialFn>
  auto run_trials(TrialFn&& fn)
      -> RunResult<std::invoke_result_t<TrialFn&, const Point&, std::uint64_t>> {
    return run(Sweep{}.cartesian(), std::forward<TrialFn>(fn));
  }

 private:
  RunnerConfig cfg_;
};

}  // namespace skyferry::exp

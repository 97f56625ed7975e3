// mc_campaign: fault::run_monte_carlo on one worker over the
// quadrocopter scenario with the harsh FaultPlan, harsh link chaos on
// link 0, the resilience stack on, and the transfer rate measured by
// mac::LinkSimulator in kAggregate mode over shared PER tables.
//
// Every pass replays the same seeded campaign, so the summaries must be
// identical; per-trial latency is the gap between consecutive trial
// starts (the campaign's chaos hook, which injects nothing here).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common.h"
#include "core/planner.h"
#include "fault/fault_plan.h"
#include "fault/link_chaos.h"
#include "fault/mission_sim.h"
#include "fault/monte_carlo.h"
#include "mac/link.h"
#include "phy/mcs.h"
#include "sim/rng.h"

namespace e2ebench {
namespace {

using namespace skyferry;

constexpr int kTrialsPerPass = 2000;

/// Set-up: the trial spec plus its shared PER-table cache, prefetched
/// with every table the link simulator asks for.
fault::TrialSpec make_spec() {
  fault::TrialSpec spec;
  spec.with_scenario(core::Scenario::quadrocopter())
      .with_faults(fault::FaultPlan::harsh())
      .with_link_chaos(fault::LinkFaultPlan::harsh(1));
  fault::ResilienceSpec rs;
  rs.enabled = true;
  spec.with_resilience(rs);
  spec.with_link_simulator(true, mac::LinkFidelity::kAggregate).with_shared_link_tables();
  const mac::LinkConfig lc;
  for (int m = 0; m < phy::kNumMcs; ++m)
    (void)spec.link_tables->table(phy::mcs(m), lc.mpdu.mpdu_bits(), lc.per_mpdu_snr_jitter_db);
  constexpr int kBlockAckBits = 32 * 8;  // the simulator's Block ACK frame
  (void)spec.link_tables->table(phy::mcs(0), kBlockAckBits);
  return spec;
}

struct Pass {
  fault::MonteCarloSummary summary;
  double wall_s{0.0};
  std::vector<double> trial_us;
  std::vector<std::uint64_t> trial_seeds;
};

Pass run_pass(const fault::TrialSpec& spec, std::uint64_t seed) {
  Pass p;
  std::vector<Clock::time_point> starts;
  starts.reserve(kTrialsPerPass);
  p.trial_seeds.reserve(kTrialsPerPass);
  fault::MonteCarloConfig cfg;
  cfg.with_spec(spec).with_trials(kTrialsPerPass).with_seed(seed).with_threads(1);
  cfg.with_chaos([&](std::uint64_t trial_seed, const exp::CancelToken&) {
    starts.push_back(Clock::now());
    p.trial_seeds.push_back(trial_seed);
  });
  const auto t0 = Clock::now();
  p.summary = fault::run_monte_carlo(cfg);
  const auto t1 = Clock::now();
  p.wall_s = seconds_between(t0, t1);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto end = i + 1 < starts.size() ? starts[i + 1] : t1;
    p.trial_us.push_back(seconds_between(starts[i], end) * 1e6);
  }
  return p;
}

[[nodiscard]] bool same_summary(const fault::MonteCarloSummary& a,
                                const fault::MonteCarloSummary& b) {
  return a.empirical_delivery_probability == b.empirical_delivery_probability &&
         a.empirical_approach_survival == b.empirical_approach_survival &&
         a.mean_delivered_fraction == b.mean_delivered_fraction && a.crashes == b.crashes &&
         a.mean_arq_retransmissions == b.mean_arq_retransmissions;
}

[[nodiscard]] std::string describe(const fault::MonteCarloSummary& s) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "delivery=%.17g survival=%.17g (analytic %.17g, ci %.4g) crashes=%d "
                "quarantined=%d",
                s.empirical_delivery_probability, s.empirical_approach_survival,
                s.analytic_approach_survival, s.delivery_ci_halfwidth, s.crashes, s.quarantined);
  return buf;
}

/// Count a campaign's trials as operations: a trial that was
/// quarantined or failed to complete fails.
void count_trials(const fault::MonteCarloSummary& s, Report& report) {
  report.count_op(true, static_cast<std::uint64_t>(s.completed_trials));
  report.count_op(false, static_cast<std::uint64_t>(s.trials - s.completed_trials));
}

void check_summary(const std::string& tag, const fault::MonteCarloSummary& s, Report& report) {
  count_trials(s, report);
  report.check(tag + "_no_quarantine", s.quarantined == 0 && s.completed_trials == s.trials,
               describe(s));
}

}  // namespace

void run_mc_campaign(const RunArgs& args, Report& report) {
  if (!args.trace) {
    const auto start = Clock::now();
    CpuRotation cpus;
    const fault::TrialSpec spec = make_spec();
    const auto set_up = [] {
      const auto s0 = Clock::now();
      const fault::TrialSpec fresh = make_spec();
      keep(fresh.link_tables);
      return seconds_between(s0, Clock::now());
    };
    report.reserve("op_us", kTrialsPerPass * kReservedPasses);
    fault::MonteCarloSummary first;
    int passes = 0;
    // Pass 0 is the warm-up; its summary anchors the checks.
    while (passes < 2 || seconds_between(start, Clock::now()) < args.seconds) {
      report.add("setup_s", best_setup_s(cpus, set_up));
      cpus.next();
      const Pass p = run_pass(spec, args.seed);
      check_summary("pass_" + std::to_string(passes), p.summary, report);
      if (passes == 0) {
        first = p.summary;
        // The paper's exponential law as a regression check: empirical
        // approach survival within its own 3-sigma binomial band
        // around the analytic δ(d_opt).
        const double s = first.empirical_approach_survival;
        const double band = 3.0 * std::sqrt(s * (1.0 - s) / first.completed_trials);
        const double gap = std::abs(s - first.analytic_approach_survival);
        report.check("survival_within_ci", gap <= band,
                     describe(first) + " band=" + std::to_string(band));
      } else {
        report.check("pass_" + std::to_string(passes) + "_summary_match",
                     same_summary(first, p.summary),
                     describe(first) + " vs " + describe(p.summary));
        for (const double us : p.trial_us) report.add("op_us", us);
      }
      ++passes;
    }
    report.set("ops_per_pass", kTrialsPerPass);
    report.set("items_per_pass", kTrialsPerPass);
    return;
  }

  // Traced run: warm-up, then rounds of an untraced campaign and the
  // same trials replayed one by one through run_mission_trial under
  // spans.
  const fault::TrialSpec spec = make_spec();
  (void)run_pass(spec, args.seed);
  CpuRotation cpus;
  std::vector<double> d_final;
  double chaos_losses = 0.0, redecisions = 0.0;
  int crashes = 0;
  Pass plain;
  for (int round = 0; round < kTraceRounds; ++round) {
    cpus.next();
    plain = run_pass(spec, args.seed);
    check_summary("untraced", plain.summary, report);
    double replay_s = 0.0;
    const auto t0 = Clock::now();
    for (const std::uint64_t seed : plain.trial_seeds) {
      const auto a = Clock::now();
      const fault::TrialResult r = fault::run_mission_trial(spec, seed);
      const double span = seconds_between(a, Clock::now());
      replay_s += span;
      report.add("fault.trial_us", span * 1e6);
      if (round > 0) continue;
      crashes += r.crashed ? 1 : 0;
      chaos_losses += static_cast<double>(r.chaos_losses);
      redecisions += r.redecisions;
      if (d_final.size() < 200) d_final.push_back(r.d_final_m);
    }
    report.add("trace_overhead_frac", seconds_between(t0, Clock::now()) / plain.wall_s - 1.0);
    report.add("exp.runner_overhead_frac", 1.0 - replay_s / plain.wall_s);
    report.count_op(true, plain.trial_seeds.size());
  }
  report.check("traced_crashes_match_campaign", crashes == plain.summary.crashes,
               std::to_string(crashes) + " traced vs " + describe(plain.summary));

  // The link-simulator rate measurement each trial makes, replayed on
  // the trials' own transmit distances.
  double linksim_s = 0.0;
  for (std::size_t i = 0; i < d_final.size(); ++i) {
    mac::LinkConfig lc;
    lc.channel = spec.link_channel;
    lc.fidelity = spec.link_fidelity;
    lc.meter_window_s = std::numeric_limits<double>::infinity();
    lc.shared_tables = spec.link_tables;
    mac::ArfRate rc;
    const auto a = Clock::now();
    mac::LinkSimulator link(lc, rc, sim::derive_seed(plain.trial_seeds[i], "fault/link"));
    const mac::LinkRunResult lr =
        link.run_saturated(spec.link_sim_duration_s, mac::static_geometry(d_final[i]));
    linksim_s += seconds_between(a, Clock::now());
    keep(lr.payload_bits_delivered);
  }

  // The planner decision every trial opens with.
  const core::Scenario& scen = spec.scenario;
  const core::PaperLogThroughput model = scen.paper_throughput();
  const core::DelayedGratificationPlanner planner(model, scen.failure_model());
  const double plan_ns = probe_ns(
      [&] {
        const core::Decision d = planner.decide(scen.delivery_params());
        keep(d.strategy.target_distance_m);
      },
      1, 0.05);

  report.set("mac.linksim_us",
             d_final.empty() ? 0.0 : linksim_s * 1e6 / static_cast<double>(d_final.size()));
  report.set("policy.plan_decide_us", plan_ns / 1e3);
  report.set("net.arq_retx_per_trial", plain.summary.mean_arq_retransmissions);
  report.set("fault.crashes", static_cast<double>(plain.summary.crashes));
  report.set("fault.chaos_losses", chaos_losses);
  report.set("fault.redecisions", redecisions);
}

void self_check_campaign_counting(Report& report) {
  fault::MonteCarloSummary s;
  s.trials = 100;
  s.completed_trials = 97;
  s.quarantined = 3;
  Report c("self_check");
  count_trials(s, c);
  record_case("campaign.quarantined", c, report);
}

}  // namespace e2ebench

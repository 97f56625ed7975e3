// Fleet workloads: fleet_wifi_dense (the legacy 802.11n exchange path
// under cell admission) and fleet_multilink_chaos (joint (link, d)
// decisions under link chaos with mid-mission re-election).
//
// One pass = build the engine and register every mission (set-up),
// sweep untimed until the fleet reaches steady state, then time each
// sweep of the steady-state window. Every pass of a run replays the same
// seeded fleet, so their totals must agree exactly. The first pass is a
// discarded warm-up; the timed passes then run in concurrent
// single-threaded replicas, one per CPU (replica_cpus in common.h).
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "fault/link_chaos.h"
#include "fleet/engine.h"
#include "link/multilink.h"
#include "mac/ampdu.h"
#include "mac/contention.h"
#include "mac/rate_control.h"
#include "mac/timing.h"
#include "phy/channel.h"
#include "phy/per.h"
#include "phy/per_table.h"
#include "policy/api.h"
#include "sim/rng.h"

namespace e2ebench {
namespace {

using namespace skyferry;

struct FleetWorkload {
  fleet::FleetConfig cfg;
  std::vector<fleet::MissionSpec> missions;
  double horizon_s{0.0};
  /// Timed steady-state window [timed_from_s, timed_to_s).
  double timed_from_s{0.0};
  double timed_to_s{0.0};
};

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// ~5000 wifi-only missions in groups of six per 500 m receiver cell (six
// exceed max_tx_per_cell = 4, so admission runs). Each group's missions
// arrive back to back out of one Poisson stream spanning the horizon, so
// cells fill one after another and, once the first missions finish
// (~45 s), the fleet holds a steady population instead of draining. The
// timed window is the last 1000 sweeps. Start points ring the receiver
// at 120-240 m, inside its cell; exact decisions happen at spawn.
FleetWorkload make_wifi_dense(std::uint64_t seed) {
  constexpr int kMissions = 5000;
  constexpr int kPerGroup = 6;
  constexpr double kCellM = 500.0;
  constexpr double kArrivalWindowS = 105.0;
  FleetWorkload w;
  w.cfg.threads = 1;
  w.cfg.cell_size_m = kCellM;
  w.cfg.max_tx_per_cell = 4;
  w.horizon_s = 110.0;
  w.timed_from_s = 60.0;
  w.timed_to_s = 110.0;

  InputRng rng(seed);
  const int groups = (kMissions + kPerGroup - 1) / kPerGroup;
  const int width = 1 + static_cast<int>(std::sqrt(static_cast<double>(groups)));
  const double rate = kMissions / kArrivalWindowS;
  double t = 0.0;
  for (int i = 0; i < kMissions; ++i) {
    const int g = i / kPerGroup;
    fleet::MissionSpec spec;
    spec.receiver_pos = {kCellM * (g % width) + kCellM / 2, kCellM * (g / width) + kCellM / 2,
                         10.0};
    const double r = rng.uniform(120.0, 240.0);
    const double a = rng.uniform(0.0, kTwoPi);
    spec.start_pos = spec.receiver_pos + geo::Vec3{r * std::cos(a), r * std::sin(a), 0.0};
    spec.mdata_bytes = std::round(rng.log_uniform(4.0e6, 1.6e7));
    spec.rho_per_m = 1.0e-4;
    t += rng.exponential(rate);
    spec.spawn_t_s = t;
    spec.deadline_s = t + 90.0;
    w.missions.push_back(spec);
  }
  return w;
}

// ~2000 missions over LinkSet {wifi, cellular, mesh, LEO} under the
// `combined` chaos row of bench/ablation_link_chaos, re-election on.
// Cells are sparse (two missions per 2 km receiver spacing) and contact
// distances spread from wifi range out to 900 m, so elections vary.
// Same arrival stream and timed window as fleet_wifi_dense.
FleetWorkload make_multilink_chaos(std::uint64_t seed) {
  constexpr int kMissions = 2000;
  constexpr int kPerGroup = 2;
  constexpr double kSpacingM = 2000.0;
  constexpr double kArrivalWindowS = 105.0;
  FleetWorkload w;
  w.cfg.threads = 1;
  w.cfg.links = std::make_shared<const link::LinkSet>(std::vector<link::LinkBackendConfig>{
      link::LinkBackendConfig::wifi_80211n(), link::LinkBackendConfig::cellular(),
      link::LinkBackendConfig::mesh(), link::LinkBackendConfig::leo()});
  fault::LinkFaultPlan p;
  p.links.resize(1);
  p.links[0].blackout_rate_per_hour = 40.0;
  p.links[0].blackout_mean_s = 25.0;
  p.links[0].degrade_rate_per_hour = 30.0;
  p.links[0].degrade_mean_s = 45.0;
  p.links[0].degrade_rate_scale = 0.2;
  p.links[0].setup_fail_p = 0.3;
  p.storm = {10.0, 30.0, 0.4};
  w.cfg.link_chaos = p;
  w.cfg.reelection.enabled = true;
  w.horizon_s = 110.0;
  w.timed_from_s = 60.0;
  w.timed_to_s = 110.0;

  InputRng rng(seed);
  const int groups = (kMissions + kPerGroup - 1) / kPerGroup;
  const int width = 1 + static_cast<int>(std::sqrt(static_cast<double>(groups)));
  const double rate = kMissions / kArrivalWindowS;
  double t = 0.0;
  for (int i = 0; i < kMissions; ++i) {
    const int g = i / kPerGroup;
    fleet::MissionSpec spec;
    spec.receiver_pos = {kSpacingM * (g % width), kSpacingM * (g / width), 10.0};
    const double r = rng.uniform(150.0, 900.0);
    const double a = rng.uniform(0.0, kTwoPi);
    spec.start_pos = spec.receiver_pos + geo::Vec3{r * std::cos(a), r * std::sin(a), 0.0};
    spec.mdata_bytes = std::round(rng.log_uniform(2.0e7, 2.0e8));
    spec.rho_per_m = 1.0e-4;
    t += rng.exponential(rate);
    spec.spawn_t_s = t;
    spec.deadline_s = t + rng.uniform(120.0, 240.0);
    w.missions.push_back(spec);
  }
  return w;
}

[[nodiscard]] long sweep_index(double t_s, double dt_s) {
  return std::lround(t_s / dt_s);
}

/// Per-sweep ledger of a traced pass: each sweep span is classified by
/// which public counters moved during it.
struct SweepLedger {
  double busy_s{0.0};
  double decide_s{0.0};
  double transition_s{0.0};
  double quiet_s{0.0};
  double ferry_uav_steps{0.0};
  double tx_uav_steps{0.0};
  double decisions{0.0};
  long sweeps{0};
};

struct PassResult {
  double ctor_s{0.0};
  double add_mission_s{0.0};
  double timed_wall_s{0.0};
  long timed_sweeps{0};
  bool ok{true};
  std::string error;
  fleet::FleetTotals totals{};
  std::vector<double> sweep_us;
  SweepLedger ledger;
  std::unique_ptr<fleet::FleetEngine> engine;
};

[[nodiscard]] std::uint64_t decide_count(const fleet::FleetEngine& eng) {
  const policy::DecisionService::Counters c = eng.service().counters();
  return c.table + c.exact;
}

[[nodiscard]] bool phases_moved(const fleet::FleetTotals& a, const fleet::FleetTotals& b) {
  return a.ferrying != b.ferrying || a.transmitting != b.transmitting ||
         a.completed != b.completed || a.failed != b.failed;
}

/// Set-up: construct the engine (PER-table prefetch, airtime memos)
/// and register every mission.
void build(const FleetWorkload& w, std::uint64_t seed, PassResult& r) {
  const auto t0 = Clock::now();
  r.engine = std::make_unique<fleet::FleetEngine>(w.cfg, seed);
  const auto t1 = Clock::now();
  for (const fleet::MissionSpec& m : w.missions) r.engine->add_mission(m);
  const auto t2 = Clock::now();
  r.ctor_s = seconds_between(t0, t1);
  r.add_mission_s = seconds_between(t1, t2);
}

PassResult run_pass(const FleetWorkload& w, std::uint64_t seed, bool traced) {
  PassResult r;
  build(w, seed, r);
  fleet::FleetEngine& eng = *r.engine;

  const double dt = w.cfg.dt_s;
  const long k_from = sweep_index(w.timed_from_s, dt);
  const long k_to = sweep_index(w.timed_to_s, dt);
  const long k_end = sweep_index(w.horizon_s, dt);
  r.sweep_us.reserve(static_cast<std::size_t>(k_to - k_from));
  fleet::FleetTotals prev = traced ? eng.totals() : fleet::FleetTotals{};
  std::uint64_t prev_decisions = traced ? decide_count(eng) : 0;
  Clock::time_point timed_start{};
  try {
    for (long k = 0; k < k_end; ++k) {
      if (k == k_from) timed_start = Clock::now();
      const auto a = Clock::now();
      eng.step();
      const auto b = Clock::now();
      const bool timed = k >= k_from && k < k_to;
      if (timed) r.sweep_us.push_back(seconds_between(a, b) * 1e6);
      if (k + 1 == k_to) r.timed_wall_s = seconds_between(timed_start, b);
      if (!traced) continue;
      // The O(n) totals() read happens between spans, so it never lands
      // inside a sweep span; it only shows in trace_overhead_frac.
      const fleet::FleetTotals cur = eng.totals();
      const std::uint64_t cur_decisions = decide_count(eng);
      const double span = seconds_between(a, b);
      SweepLedger& L = r.ledger;
      L.busy_s += span;
      ++L.sweeps;
      L.ferry_uav_steps += static_cast<double>(prev.ferrying);
      L.tx_uav_steps += static_cast<double>(prev.transmitting);
      if (cur_decisions != prev_decisions) {
        L.decide_s += span;
        L.decisions += static_cast<double>(cur_decisions - prev_decisions);
      } else if (phases_moved(prev, cur)) {
        L.transition_s += span;
      } else {
        L.quiet_s += span;
      }
      prev = cur;
      prev_decisions = cur_decisions;
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.timed_sweeps = static_cast<long>(r.sweep_us.size());
  r.totals = eng.totals();
  return r;
}

[[nodiscard]] bool same_totals(const fleet::FleetTotals& a, const fleet::FleetTotals& b) {
  return a.completed == b.completed && a.failed == b.failed &&
         a.bytes_delivered == b.bytes_delivered &&
         a.deadline_weighted_utility == b.deadline_weighted_utility &&
         a.reelections == b.reelections;
}

[[nodiscard]] std::string describe(const fleet::FleetTotals& t) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "completed=%zu failed=%zu bytes=%llu utility=%.17g",
                t.completed, t.failed, static_cast<unsigned long long>(t.bytes_delivered),
                t.deadline_weighted_utility);
  return buf;
}

/// Count a pass's sweeps and decisions as operations: the sweeps fail
/// if one threw, and a spawned mission's decision fails if its d* or U*
/// is non-finite. Missions not spawned by `now_s` have no decision yet.
void count_ops(bool sweeps_ok, long sweeps, const std::vector<fleet::MissionStatus>& missions,
               double now_s, Report& report) {
  report.count_op(sweeps_ok, static_cast<std::uint64_t>(sweeps));
  for (const fleet::MissionStatus& st : missions) {
    if (st.spawn_t_s > now_s) continue;
    report.count_op(std::isfinite(st.d_star_m) && std::isfinite(st.utility));
  }
}

void count_ops(const PassResult& r, long sweeps, Report& report) {
  const fleet::FleetEngine& eng = *r.engine;
  std::vector<fleet::MissionStatus> missions(eng.mission_count());
  for (std::size_t i = 0; i < missions.size(); ++i) missions[i] = eng.mission(static_cast<int>(i));
  count_ops(r.ok, sweeps, missions, eng.now(), report);
}

/// An evenly strided sample of the spawn queries the engine batched into
/// DecisionService (same construction as FleetEngine::decide_pending).
std::vector<policy::Query> spawn_queries(const FleetWorkload& w, std::size_t limit) {
  std::vector<policy::Query> qs;
  const std::size_t stride = std::max<std::size_t>(1, w.missions.size() / limit);
  for (std::size_t i = 0; i < w.missions.size() && qs.size() < limit; i += stride) {
    const fleet::MissionSpec& m = w.missions[i];
    policy::Query q;
    q.d0_m = geo::distance(m.start_pos, m.receiver_pos);
    q.speed_mps = m.speed_mps > 0.0 ? m.speed_mps : w.cfg.scenario.speed_mps;
    q.mdata_bytes = static_cast<double>(static_cast<std::uint64_t>(m.mdata_bytes));
    q.min_distance_m = w.cfg.scenario.min_distance_m;
    q.rho_per_m = m.rho_per_m >= 0.0 ? m.rho_per_m : w.cfg.scenario.rho_per_m;
    qs.push_back(q);
  }
  return qs;
}

/// Unit costs of the 802.11n exchange layers, each measured on this
/// fleet's own inputs: the missions' d*, and the MCS, subframe counts
/// and PERs that an ARF-driven exchange sequence at those d* produces
/// (the same call grammar as FleetEngine::run_exchanges).
struct ExchangeProbe {
  double snr_db_ns{0.0};
  double per_lookup_ns{0.0};
  double arf_ns{0.0};
  double binomial_ns{0.0};
  double contention_ns{0.0};
  double mean_subframes{0.0};
  /// Estimated cost of one exchange: snr + 2 PER lookups (data, Block
  /// ACK) + ARF select/report + binomial.
  [[nodiscard]] double exchange_ns() const {
    return snr_db_ns + 2.0 * per_lookup_ns + arf_ns + binomial_ns;
  }
};

ExchangeProbe probe_exchange_layers(const fleet::FleetConfig& cfg,
                                    const std::vector<double>& d_star, std::uint64_t seed) {
  constexpr int kExchangesPerMission = 64;
  constexpr double kExchangeGapS = 1.5e-3;
  ExchangeProbe p;
  if (d_star.empty()) return p;

  phy::PerTableCache cache(phy::ErrorModel(cfg.error, cfg.channel.spatial_correlation),
                           cfg.per_table);
  std::array<const phy::PerTable*, phy::kNumMcs> tables{};
  for (int m = 0; m < phy::kNumMcs; ++m) {
    tables[static_cast<std::size_t>(m)] =
        &cache.table(phy::mcs(m), cfg.mpdu.mpdu_bits(), cfg.per_mpdu_snr_jitter_db);
  }
  std::array<int, phy::kNumMcs> full_n{};
  for (int m = 0; m < phy::kNumMcs; ++m) {
    full_n[static_cast<std::size_t>(m)] = mac::subframes_for(
        cfg.ampdu, cfg.mpdu, phy::mcs(m), cfg.channel.width, cfg.channel.gi,
        cfg.ampdu.max_subframes);
  }

  // Record one exchange sequence per mission (untimed).
  const std::size_t total = d_star.size() * kExchangesPerMission;
  std::vector<double> ts(total), ds(total), snr(total), per(total);
  std::vector<int> mcs(total), n(total), delivered(total);
  sim::Rng rng(sim::derive_seed(seed, "e2ebench/exchange"));
  std::size_t k = 0;
  for (std::size_t i = 0; i < d_star.size(); ++i) {
    phy::LinkChannel ch(cfg.channel, sim::fork(seed, 1, i));
    mac::ArfRate arf(mac::ArfConfig{}, cfg.channel.width, cfg.channel.gi);
    for (int e = 0; e < kExchangesPerMission; ++e, ++k) {
      ts[k] = e * kExchangeGapS;
      ds[k] = d_star[i];
      mcs[k] = arf.select_mcs(ts[k]);
      n[k] = full_n[static_cast<std::size_t>(mcs[k])];
      snr[k] = ch.snr_db(ts[k], ds[k], 0.0);
      per[k] = tables[static_cast<std::size_t>(mcs[k])]->per(snr[k]);
      delivered[k] = static_cast<int>(rng.binomial(static_cast<std::uint64_t>(n[k]), 1.0 - per[k]));
      arf.report(ts[k], mac::TxFeedback{mcs[k], n[k], delivered[k]});
    }
  }
  double n_sum = 0.0;
  for (const int x : n) n_sum += x;
  p.mean_subframes = n_sum / static_cast<double>(total);

  // Stateful layers (channel, ARF) get fresh instances per repetition,
  // built outside the timed loop.
  {
    std::vector<phy::LinkChannel> chans;
    double spent = 0.0;
    std::size_t calls = 0;
    double sink = 0.0;
    while (spent < 0.05) {
      chans.clear();
      for (std::size_t i = 0; i < d_star.size(); ++i)
        chans.emplace_back(cfg.channel, sim::fork(seed, 1, i));
      const auto a = Clock::now();
      for (std::size_t j = 0; j < total; ++j)
        sink += chans[j / kExchangesPerMission].snr_db(ts[j], ds[j], 0.0);
      spent += seconds_between(a, Clock::now());
      calls += total;
    }
    keep(sink);
    p.snr_db_ns = spent * 1e9 / static_cast<double>(calls);
  }
  {
    std::vector<mac::ArfRate> arfs;
    double spent = 0.0;
    std::size_t calls = 0;
    int sink = 0;
    while (spent < 0.05) {
      arfs.assign(d_star.size(), mac::ArfRate(mac::ArfConfig{}, cfg.channel.width,
                                              cfg.channel.gi));
      const auto a = Clock::now();
      for (std::size_t j = 0; j < total; ++j) {
        mac::ArfRate& arf = arfs[j / kExchangesPerMission];
        const int m = arf.select_mcs(ts[j]);
        arf.report(ts[j], mac::TxFeedback{m, n[j], std::min(delivered[j], n[j])});
        sink += m;
      }
      spent += seconds_between(a, Clock::now());
      calls += total;
    }
    keep(sink);
    p.arf_ns = spent * 1e9 / static_cast<double>(calls);
  }
  p.per_lookup_ns = probe_ns(
      [&] {
        double s = 0.0;
        for (std::size_t j = 0; j < total; ++j)
          s += tables[static_cast<std::size_t>(mcs[j])]->per(snr[j]);
        keep(s);
      },
      total);
  sim::Rng brng(sim::derive_seed(seed, "e2ebench/binomial"));
  p.binomial_ns = probe_ns(
      [&] {
        std::uint64_t s = 0;
        for (std::size_t j = 0; j < total; ++j)
          s += brng.binomial(static_cast<std::uint64_t>(n[j]), 1.0 - per[j]);
        keep(s);
      },
      total);

  const double ba_airtime = mac::block_ack_duration_s(cfg.channel.width);
  std::array<double, phy::kNumMcs> frame_airtime{};
  for (int m = 0; m < phy::kNumMcs; ++m) {
    frame_airtime[static_cast<std::size_t>(m)] = mac::ampdu_duration_s(
        cfg.mpdu, phy::mcs(m), cfg.channel.width, cfg.channel.gi, cfg.ampdu.max_subframes);
  }
  const int max_tx = std::max(cfg.max_tx_per_cell, 2);
  p.contention_ns = probe_ns(
      [&] {
        double s = 0.0;
        for (int st = 2; st <= max_tx; ++st)
          for (const double air : frame_airtime)
            s += mac::analyze_contention(st, cfg.timing, air, ba_airtime).efficiency_vs_single;
        keep(s);
      },
      static_cast<std::size_t>(max_tx - 1) * phy::kNumMcs);
  return p;
}

void traced_run(const FleetWorkload& w, const RunArgs& args, bool multilink, Report& report) {
  // Warm-up pass (discarded), then rounds of an untraced and a traced
  // pass of the same seeded fleet: their totals must match exactly. The
  // ledger is the last round's.
  (void)run_pass(w, args.seed, false);
  const long sweeps = sweep_index(w.horizon_s, w.cfg.dt_s);
  CpuRotation cpus;
  PassResult traced;
  for (int round = 0; round < kTraceRounds; ++round) {
    cpus.next();
    const PassResult plain = run_pass(w, args.seed, false);
    traced = run_pass(w, args.seed, true);
    count_ops(plain, sweeps, report);
    count_ops(traced, sweeps, report);
    report.check("sweeps_ran", plain.ok && traced.ok, plain.error + traced.error);
    report.check("traced_totals_match_untimed", same_totals(plain.totals, traced.totals),
                 "untraced " + describe(plain.totals) + " vs traced " + describe(traced.totals));
    report.add("trace_overhead_frac", traced.timed_wall_s / plain.timed_wall_s - 1.0);
  }

  const SweepLedger& L = traced.ledger;
  report.set("fleet.sweeps", static_cast<double>(L.sweeps));
  report.set("fleet.sweep_busy_s", L.busy_s);
  report.set("fleet.sweep_decide_s", L.decide_s);
  report.set("fleet.sweep_transition_s", L.transition_s);
  report.set("fleet.sweep_quiet_s", L.quiet_s);
  report.set("fleet.ferry_uav_steps", L.ferry_uav_steps);
  report.set("fleet.tx_uav_steps", L.tx_uav_steps);
  report.set("fleet.decisions", L.decisions);
  report.set("fleet.reelections", static_cast<double>(traced.totals.reelections));
  report.set("fleet.stalled_by_link", static_cast<double>(traced.totals.stalled_by_link));
  report.set("fleet.ctor_s", traced.ctor_s);
  report.set("fleet.add_mission_s", traced.add_mission_s);

  // Exchange-layer probes on the missions that burst over 802.11n.
  const fleet::FleetEngine& eng = *traced.engine;
  std::vector<double> wifi_d_star;
  double mpdus_att = 0.0, mpdus_del = 0.0, wifi_mpdus = 0.0;
  for (std::size_t i = 0; i < eng.mission_count(); ++i) {
    const fleet::MissionStatus st = eng.mission(static_cast<int>(i));
    mpdus_att += static_cast<double>(st.mpdus_attempted);
    mpdus_del += static_cast<double>(st.mpdus_delivered);
    const bool on_wifi = st.burst_link <= 0;  // -1: legacy path, 0: wifi in the LinkSet
    if (!on_wifi || st.mpdus_attempted == 0) continue;
    wifi_d_star.push_back(st.d_star_m);
    wifi_mpdus += static_cast<double>(st.mpdus_attempted);
  }
  // An evenly strided sample of at most 512 of them.
  const std::size_t stride = wifi_d_star.size() / 512 + 1;
  for (std::size_t i = 0; i * stride < wifi_d_star.size(); ++i)
    wifi_d_star[i] = wifi_d_star[i * stride];
  wifi_d_star.resize((wifi_d_star.size() + stride - 1) / stride);
  const ExchangeProbe xp = probe_exchange_layers(w.cfg, wifi_d_star, args.seed);
  report.set("phy.snr_db_ns", xp.snr_db_ns);
  report.set("phy.per_lookup_ns", xp.per_lookup_ns);
  report.set("mac.arf_ns", xp.arf_ns);
  report.set("sim.binomial_ns", xp.binomial_ns);
  report.set("mac.contention_ns", xp.contention_ns);
  report.set("mac.mpdus_attempted", mpdus_att);
  report.set("mac.mpdu_delivery_ratio", mpdus_att > 0.0 ? mpdus_del / mpdus_att : 0.0);

  // Decision unit cost through the engine's own service, on the
  // fleet's spawn queries.
  double decide_unit_s = 0.0;
  if (multilink) {
    const auto qs = spawn_queries(w, 32);
    std::vector<policy::MultiLinkDecision> out(qs.size());
    const double ns = probe_ns([&] { eng.service().decide_multilink(qs, out); }, qs.size(), 0.2);
    report.set("policy.decide_multilink_us", ns / 1e3);
    decide_unit_s = ns / 1e9;
  } else {
    const auto qs = spawn_queries(w, 256);
    std::vector<policy::Decision> out(qs.size());
    const double ns = probe_ns([&] { eng.service().decide(qs, out); }, qs.size(), 0.1);
    report.set("policy.decide_exact_us", ns / 1e3);
    decide_unit_s = ns / 1e9;
  }

  // How much of the sweep time the probes explain: 802.11n exchanges
  // (estimated from their MPDU count and the probed subframes per
  // aggregate), decisions, and the memoized contention rows (at most one
  // per MCS and admitted-station count over the engine's life).
  const double exchanges = xp.mean_subframes > 0.0 ? wifi_mpdus / xp.mean_subframes : 0.0;
  const double contention_calls =
      static_cast<double>(phy::kNumMcs) * std::max(w.cfg.max_tx_per_cell - 1, 0);
  const double explained = exchanges * xp.exchange_ns() * 1e-9 + L.decisions * decide_unit_s +
                           contention_calls * xp.contention_ns * 1e-9;
  report.set("fleet.ledger_coverage", L.busy_s > 0.0 ? explained / L.busy_s : 0.0);
}

/// Engine builds per set-up repetition of a replica: the pass's own
/// build and two more just before it. A build's cost jumps with the
/// state of its CPU and with what the other replicas are doing at that
/// moment; keeping the best of three filters those jumps.
constexpr int kBuildsPerSetup = 3;
/// Passes whose builds make one set-up repetition of a run. A build
/// lasts ~15 ms, so the builds of one pass on all replicas sample one
/// moment of the host; at a moment when every CPU runs slow (common on
/// a loaded host) the repetition reads 1.3-1.5x, and the median over
/// single-pass repetitions drifted by up to 31% between sets of runs.
constexpr std::size_t kPassesPerSetup = 2;

/// One replica of an untraced fleet run: timed passes of the same
/// seeded fleet on one thread until the run's time is up, each preceded
/// by one set-up repetition.
struct Replica {
  Report report{"replica"};
  std::vector<double> setup_s;
  long timed_sweeps{0};
};

void run_replica(const FleetWorkload& w, const RunArgs& args, Clock::time_point start,
                 const fleet::FleetTotals& expected, const std::string& tag, Replica& out) {
  const long sweeps = sweep_index(w.horizon_s, w.cfg.dt_s);
  out.report.reserve("op_us", static_cast<std::size_t>(sweep_index(
                                  w.timed_to_s - w.timed_from_s, w.cfg.dt_s)) *
                                  kReservedPasses);
  int passes = 0;
  do {
    double setup_s = std::numeric_limits<double>::infinity();
    for (int b = 1; b < kBuildsPerSetup; ++b) {
      PassResult built;
      build(w, args.seed, built);
      setup_s = std::min(setup_s, built.ctor_s + built.add_mission_s);
    }
    const PassResult r = run_pass(w, args.seed, false);
    out.setup_s.push_back(std::min(setup_s, r.ctor_s + r.add_mission_s));
    count_ops(r, sweeps, out.report);
    if (!r.ok) {
      out.report.check("sweeps_ran", false, r.error);
      return;
    }
    ++passes;
    out.report.check(tag + "pass_" + std::to_string(passes) + "_totals_match",
                     same_totals(expected, r.totals),
                     describe(expected) + " vs " + describe(r.totals));
    for (const double us : r.sweep_us) out.report.add("op_us", us);
    out.timed_sweeps = r.timed_sweeps;
  } while (seconds_between(start, Clock::now()) < args.seconds);
}

void run_fleet(const FleetWorkload& w, const RunArgs& args, bool multilink, Report& report) {
  if (args.trace) {
    traced_run(w, args, multilink, report);
    return;
  }
  const double n_missions = static_cast<double>(w.missions.size());
  const long sweeps = sweep_index(w.horizon_s, w.cfg.dt_s);
  const auto start = Clock::now();
  // The warm-up pass runs alone on this thread: its timings are
  // discarded (the first pass of a process runs measurably slower), its
  // totals anchor the checks, and the peak resident set after it is
  // that of one engine, what a user running this fleet would see.
  const PassResult warm = run_pass(w, args.seed, false);
  count_ops(warm, sweeps, report);
  if (!warm.ok) {
    report.check("sweeps_ran", false, warm.error);
    return;
  }
  report.set("peak_rss_mb", peak_rss_mb());
  const fleet::FleetTotals first = warm.totals;

  // Timed passes: one single-threaded replica per CPU (replica_cpus).
  const std::vector<int> cpus = replica_cpus();
  std::vector<Replica> replicas(std::max<std::size_t>(cpus.size(), 1));
  {
    std::vector<std::jthread> threads;  // joined on every path out of this scope
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      threads.emplace_back([&, i] {
        if (i < cpus.size()) pin_thread(cpus[i]);
        const std::string tag = "replica_" + std::to_string(i) + "_";
        try {
          run_replica(w, args, start, first, tag, replicas[i]);
        } catch (const std::exception& e) {
          replicas[i].report.check(tag + "ran", false, e.what());
        }
      });
    }
  }

  // A run's set-up repetition is the best of the replicas' repetitions
  // over kPassesPerSetup consecutive passes: builds on every replica's
  // CPU, spread over a few seconds, as an operation keeps its best over
  // passes. setup_s is their median (run.py).
  std::size_t passes = replicas.front().setup_s.size();
  for (const Replica& r : replicas) passes = std::min(passes, r.setup_s.size());
  const std::size_t group = std::clamp<std::size_t>(passes, 1, kPassesPerSetup);
  for (std::size_t j = 0; j + group <= passes; j += group) {
    double best = std::numeric_limits<double>::infinity();
    for (const Replica& r : replicas) {
      for (std::size_t k = j; k < j + group; ++k) best = std::min(best, r.setup_s[k]);
    }
    report.add("setup_s", best);
  }
  long timed_sweeps = 0;
  for (const Replica& r : replicas) {
    report.merge(r.report);
    timed_sweeps = std::max(timed_sweeps, r.timed_sweeps);
  }
  // items = UAV-steps: sweeps x registered missions (the
  // bench/fleet_scale definition of ns per UAV-step).
  report.set("ops_per_pass", static_cast<double>(timed_sweeps));
  report.set("items_per_pass", static_cast<double>(timed_sweeps) * n_missions);
  report.set("replicas", static_cast<double>(replicas.size()));
  report.check("fleet_delivered", first.completed > 0 && first.bytes_delivered > 0,
               describe(first));
}

}  // namespace

void self_check_fleet_counting(Report& report) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<fleet::MissionStatus> missions(4);
  missions[0].d_star_m = 120.0;
  missions[0].utility = 0.5;
  missions[1].d_star_m = kNaN;  // non-finite d*
  missions[2].utility = kInf;   // non-finite U*
  missions[3].d_star_m = kNaN;  // not spawned yet: no decision
  missions[3].spawn_t_s = 50.0;
  Report threw("self_check");
  count_ops(false, 10, {missions[0]}, 10.0, threw);
  record_case("fleet.sweep_threw", threw, report);
  Report bad("self_check");
  count_ops(true, 10, missions, 10.0, bad);
  record_case("fleet.non_finite_decisions", bad, report);
  // Replicas' reports merged into the run's, as run_fleet does.
  Report merged("self_check");
  merged.merge(threw);
  merged.merge(bad);
  record_case("fleet.replicas_merged", merged, report);
}

void run_fleet_wifi_dense(const RunArgs& args, Report& report) {
  run_fleet(make_wifi_dense(args.seed), args, false, report);
}

void run_fleet_multilink_chaos(const RunArgs& args, Report& report) {
  run_fleet(make_multilink_chaos(args.seed), args, true, report);
}

}  // namespace e2ebench

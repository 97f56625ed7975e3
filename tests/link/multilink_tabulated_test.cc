// Differential tests for the tabulated joint (link, d) optimizer.
//
// The oracle is optimize_multilink as it was before the grid table and
// the one-pass re-election: every search evaluated its objective at
// each grid point itself, pass 2 recomputed the other links' trickles
// per point, and a re-election made one forced call per link. It lives
// only in this file, together with the search schedule it ran, so the
// oracle shares no code with the optimizer under test. Over seeded
// queries spanning degenerate intervals, a binding trickle cap, every
// failure law, small and default grids and three link sets, the free
// election and every element of the per-link pass must match the
// oracle's free and forced elections bit for bit on every result
// field; DecisionService's one-pass re-election must match the forced
// oracle the same way, counters included.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "core/throughput_model.h"
#include "link/multilink.h"
#include "policy/service.h"
#include "support/proptest.h"
#include "uav/failure.h"

namespace skyferry {
namespace {

// ---- the oracle: the pre-tabulation optimizer, verbatim in behaviour -------

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kPathSegments = 8;

template <class F>
core::ScalarSearchResult oracle_search(double lo, double hi, F&& f,
                                       const core::OptimizeOptions& opt) {
  core::ScalarSearchResult out;
  if (hi <= lo) {
    out.d = hi;
    out.val = f(hi);
    out.evals = 1;
    return out;
  }
  const int n = std::max(opt.grid_points, 8);
  double best_d = lo;
  double best_u = -1.0;
  int best_i = 0;
  int evals = 0;
  for (int i = 0; i < n; ++i) {
    const double d = lo + (hi - lo) * i / (n - 1);
    const double val = f(d);
    ++evals;
    if (val > best_u) {
      best_u = val;
      best_d = d;
      best_i = i;
    }
  }
  constexpr double kGoldenRatioInv = 0.6180339887498949;
  double a = lo + (hi - lo) * std::max(best_i - 1, 0) / (n - 1);
  double b = lo + (hi - lo) * std::min(best_i + 1, n - 1) / (n - 1);
  double x1 = b - kGoldenRatioInv * (b - a);
  double x2 = a + kGoldenRatioInv * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  evals += 2;
  for (int i = 0; i < opt.max_refine_iters && (b - a) > opt.tolerance_m; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kGoldenRatioInv * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kGoldenRatioInv * (b - a);
      f1 = f(x1);
    }
    ++evals;
  }
  const double mid = 0.5 * (a + b);
  const double refined = f(mid);
  ++evals;
  const bool take_mid = refined >= best_u;
  out.d = take_mid ? mid : best_d;
  out.val = take_mid ? refined : best_u;
  out.evals = evals;
  return out;
}

double oracle_trickle(const link::LinkBackend& bk, double d_m, const link::MultiLinkParams& p) {
  const double tship = d_m >= p.d0_m ? 0.0 : (p.d0_m - d_m) / p.speed_mps;
  const double window = tship - bk.config().session_setup_s;
  if (window <= 0.0) return 0.0;
  double acc = 0.0;
  for (int i = 0; i <= kPathSegments; ++i) {
    const double x = d_m + (p.d0_m - d_m) * i / kPathSegments;
    const double s = bk.rate_bps(std::max(x, p.min_distance_m));
    acc += (i == 0 || i == kPathSegments) ? 0.5 * s : s;
  }
  const double mean_rate_bps = acc / kPathSegments;
  return bk.availability() * window * mean_rate_bps / 8.0;
}

struct OracleEval {
  double cdelay_s{kInf};
  double discount{0.0};
  double utility{0.0};
};

OracleEval oracle_eval(const link::LinkBackend& bk, double d_m, double burst_bytes,
                       const link::MultiLinkParams& p, const uav::FailureModel& failure) {
  OracleEval e;
  const double tship = d_m >= p.d0_m ? 0.0 : (p.d0_m - d_m) / p.speed_mps;
  const double dc = std::max(d_m, p.min_distance_m);
  const double s = bk.rate_bps(dc) * bk.availability();
  const double ttx = s <= 0.0 ? kInf : burst_bytes * 8.0 / s;
  e.cdelay_s = tship + ttx + bk.latency_s();
  e.discount = failure.discount(p.d0_m, d_m);
  e.utility = (e.cdelay_s > 0.0 && e.cdelay_s != kInf) ? e.discount / e.cdelay_s : 0.0;
  return e;
}

core::OptimizeResult oracle_result(const OracleEval& e, double d, double lo, double hi,
                                   int evals) {
  core::OptimizeResult r;
  r.d_opt_m = d;
  r.utility = e.utility;
  r.cdelay_s = e.cdelay_s;
  r.discount = e.discount;
  const double eps = 1e-6 * std::max(hi - lo, 1.0);
  r.boundary = d >= hi - eps   ? core::Boundary::kTransmitNow
               : d <= lo + eps ? core::Boundary::kAtFloor
                               : core::Boundary::kInterior;
  r.evaluations = evals;
  return r;
}

link::MultiLinkResult oracle_multilink(const std::vector<const link::LinkBackend*>& links,
                                       const link::MultiLinkParams& p,
                                       const uav::FailureModel& failure,
                                       const core::OptimizeOptions& opt, int forced) {
  link::MultiLinkResult r;
  const int n_links = static_cast<int>(links.size());
  if (n_links == 0) return r;
  r.single.resize(static_cast<std::size_t>(n_links));
  r.trickle_by_link.assign(static_cast<std::size_t>(n_links), 0.0);
  const double lo = p.min_distance_m;
  const double hi = p.d0_m;
  const auto bk = [&](int k) -> const link::LinkBackend& {
    return *links[static_cast<std::size_t>(k)];
  };
  const auto joint_trickle = [&](int j, double d) {
    double total = 0.0;
    for (int k = 0; k < n_links; ++k) {
      if (k == j) continue;
      total += oracle_trickle(bk(k), d, p);
    }
    return std::min(total, p.mdata_bytes);
  };
  const auto joint_utility = [&](int j, double d) {
    return oracle_eval(bk(j), d, p.mdata_bytes - joint_trickle(j, d), p, failure).utility;
  };
  for (int j = 0; j < n_links; ++j) {
    const core::ScalarSearchResult s = oracle_search(
        lo, hi, [&](double d) { return oracle_eval(bk(j), d, p.mdata_bytes, p, failure).utility; },
        opt);
    r.single[static_cast<std::size_t>(j)] =
        oracle_result(oracle_eval(bk(j), s.d, p.mdata_bytes, p, failure), s.d, lo, hi, s.evals);
  }
  int best_j = -1;
  core::ScalarSearchResult best{};
  for (int j = 0; j < n_links; ++j) {
    if (forced >= 0 && j != forced) continue;
    core::ScalarSearchResult cand;
    if (n_links == 1) {
      const core::OptimizeResult& s = r.single[static_cast<std::size_t>(j)];
      cand = {s.d_opt_m, s.utility, s.evaluations};
    } else {
      cand = oracle_search(lo, hi, [&](double d) { return joint_utility(j, d); }, opt);
      const double d_single = r.single[static_cast<std::size_t>(j)].d_opt_m;
      const double v_single = joint_utility(j, d_single);
      ++cand.evals;
      if (v_single > cand.val) {
        cand.d = d_single;
        cand.val = v_single;
      }
    }
    if (best_j < 0 || cand.val > best.val) {
      best_j = j;
      best = cand;
    }
  }
  if (best_j < 0) return r;
  r.burst_link = best_j;
  double raw_sum = 0.0;
  for (int k = 0; k < n_links; ++k) {
    if (k == best_j || n_links == 1) continue;
    const double tr = oracle_trickle(bk(k), best.d, p);
    r.trickle_by_link[static_cast<std::size_t>(k)] = tr;
    raw_sum += tr;
  }
  r.trickle_bytes = n_links == 1 ? 0.0 : std::min(raw_sum, p.mdata_bytes);
  if (raw_sum > p.mdata_bytes && raw_sum > 0.0) {
    const double scale = p.mdata_bytes / raw_sum;
    for (double& v : r.trickle_by_link) v *= scale;
  }
  r.burst_bytes = p.mdata_bytes - r.trickle_bytes;
  r.decision = oracle_result(oracle_eval(bk(best_j), best.d, r.burst_bytes, p, failure), best.d,
                             lo, hi, best.evals);
  return r;
}

// ---- bitwise comparison ------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_result(const core::OptimizeResult& a,
                                       const core::OptimizeResult& b) {
  if (!same_bits(a.d_opt_m, b.d_opt_m)) return ::testing::AssertionFailure() << "d_opt_m";
  if (!same_bits(a.utility, b.utility)) return ::testing::AssertionFailure() << "utility";
  if (!same_bits(a.cdelay_s, b.cdelay_s)) return ::testing::AssertionFailure() << "cdelay_s";
  if (!same_bits(a.discount, b.discount)) return ::testing::AssertionFailure() << "discount";
  if (a.boundary != b.boundary) return ::testing::AssertionFailure() << "boundary";
  if (a.evaluations != b.evaluations) return ::testing::AssertionFailure() << "evaluations";
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_result(const link::MultiLinkResult& a,
                                       const link::MultiLinkResult& b) {
  if (const auto d = same_result(a.decision, b.decision); !d)
    return ::testing::AssertionFailure() << "decision." << d.message();
  if (a.burst_link != b.burst_link) return ::testing::AssertionFailure() << "burst_link";
  if (!same_bits(a.trickle_bytes, b.trickle_bytes))
    return ::testing::AssertionFailure() << "trickle_bytes";
  if (!same_bits(a.burst_bytes, b.burst_bytes))
    return ::testing::AssertionFailure() << "burst_bytes";
  if (a.trickle_by_link.size() != b.trickle_by_link.size())
    return ::testing::AssertionFailure() << "trickle_by_link size";
  for (std::size_t k = 0; k < a.trickle_by_link.size(); ++k) {
    if (!same_bits(a.trickle_by_link[k], b.trickle_by_link[k]))
      return ::testing::AssertionFailure() << "trickle_by_link[" << k << "]";
  }
  if (a.single.size() != b.single.size()) return ::testing::AssertionFailure() << "single size";
  for (std::size_t k = 0; k < a.single.size(); ++k) {
    if (const auto s = same_result(a.single[k], b.single[k]); !s)
      return ::testing::AssertionFailure() << "single[" << k << "]." << s.message();
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_decision(const policy::MultiLinkDecision& a,
                                         const policy::MultiLinkDecision& b) {
  const policy::Decision& x = a.decision;
  const policy::Decision& y = b.decision;
  if (!same_bits(x.d_opt_m, y.d_opt_m)) return ::testing::AssertionFailure() << "d_opt_m";
  if (!same_bits(x.v_opt_mps, y.v_opt_mps)) return ::testing::AssertionFailure() << "v_opt_mps";
  if (!same_bits(x.utility, y.utility)) return ::testing::AssertionFailure() << "utility";
  if (!same_bits(x.cdelay_s, y.cdelay_s)) return ::testing::AssertionFailure() << "cdelay_s";
  if (!same_bits(x.discount, y.discount)) return ::testing::AssertionFailure() << "discount";
  if (!same_bits(x.rho_per_m, y.rho_per_m)) return ::testing::AssertionFailure() << "rho_per_m";
  if (x.boundary != y.boundary) return ::testing::AssertionFailure() << "boundary";
  if (x.backend != y.backend) return ::testing::AssertionFailure() << "backend";
  if (x.evaluations != y.evaluations) return ::testing::AssertionFailure() << "evaluations";
  if (x.fallback_reason != y.fallback_reason)
    return ::testing::AssertionFailure() << "fallback_reason";
  if (a.burst_link != b.burst_link) return ::testing::AssertionFailure() << "burst_link";
  if (!same_bits(a.trickle_bytes, b.trickle_bytes))
    return ::testing::AssertionFailure() << "trickle_bytes";
  if (!same_bits(a.burst_bytes, b.burst_bytes))
    return ::testing::AssertionFailure() << "burst_bytes";
  return ::testing::AssertionSuccess();
}

// ---- query generation ----------------------------------------------------------

/// The three link sets: 802.11n alone, all four backends, and all four
/// with the cellular backend dead on every reachable distance.
std::vector<std::shared_ptr<const link::LinkSet>> link_sets() {
  link::LinkBackendConfig dead = link::LinkBackendConfig::cellular();
  dead.name = "cellular-dead";
  dead.cell_max_range_m = 5.0;  // below every floor drawn below
  using C = link::LinkBackendConfig;
  return {
      std::make_shared<const link::LinkSet>(std::vector<C>{C::wifi_80211n()}),
      std::make_shared<const link::LinkSet>(
          std::vector<C>{C::wifi_80211n(), C::cellular(), C::mesh(), C::leo()}),
      std::make_shared<const link::LinkSet>(
          std::vector<C>{C::wifi_80211n(), dead, C::mesh(), C::leo()}),
  };
}

constexpr int kGridChoices[] = {1, 8, 9, 256};
constexpr uav::FailureLaw kLaws[] = {uav::FailureLaw::kExponential, uav::FailureLaw::kLinear,
                                     uav::FailureLaw::kWeibull};

/// One drawn decision input, in the service's Query shape.
policy::Query draw_query(proptest::Case& g) {
  policy::Query q;
  q.min_distance_m = g.chance(0.8) ? 20.0 : g.uniform(6.0, 60.0);
  const double u = g.uniform(0.0, 1.0);
  if (u < 0.08) {
    q.d0_m = g.uniform(0.0, q.min_distance_m);  // hi < lo: one evaluation at d0
  } else if (u < 0.12) {
    q.d0_m = q.min_distance_m;  // hi == lo
  } else {
    q.d0_m = g.uniform(q.min_distance_m, 1500.0);
  }
  q.speed_mps = g.uniform(1.0, 40.0);
  // Down to a few hundred bytes, so the background trickle often covers
  // the whole batch and the Mdata cap binds.
  q.mdata_bytes = std::pow(10.0, g.uniform(2.0, 9.5));
  q.law = kLaws[g.uniform_int(0, 2)];
  q.weibull_shape = g.uniform(0.5, 4.0);
  q.rho_per_m = g.chance(0.15) ? 0.0 : std::pow(10.0, g.uniform(-6.0, -1.5));
  q.optimize.grid_points = kGridChoices[g.uniform_int(0, 3)];
  return q;
}

link::MultiLinkParams params_of(const policy::Query& q) {
  return {q.d0_m, q.speed_mps, q.mdata_bytes, q.min_distance_m};
}

uav::FailureModel failure_of(const policy::Query& q) {
  return uav::FailureModel(q.rho_per_m, q.law, q.weibull_shape);
}

// ---- tests ------------------------------------------------------------------

TEST(MultiLinkTabulated, MatchesPreTabulationOracleBitForBit) {
  const auto sets = link_sets();
  int degenerate = 0;
  int cap_binds = 0;
  int law_seen[3] = {0, 0, 0};
  FOR_ALL(10'500, 0x7AB1E5ULL, g) {
    const auto& set = sets[static_cast<std::size_t>(g.uniform_int(0, 2))];
    const std::vector<const link::LinkBackend*> views = set->views();
    const int n = static_cast<int>(views.size());
    const policy::Query q = draw_query(g);
    const link::MultiLinkParams p = params_of(q);
    const uav::FailureModel failure = failure_of(q);

    const link::MultiLinkResult want = oracle_multilink(views, p, failure, q.optimize, -1);
    const link::MultiLinkResult got = link::optimize_multilink(views, p, failure, q.optimize);
    const auto where = [&](int forced) {
      return ::testing::Message()
             << "links=" << n << " forced=" << forced << " d0=" << p.d0_m << " min_d="
             << p.min_distance_m << " v=" << p.speed_mps << " M=" << p.mdata_bytes
             << " rho=" << q.rho_per_m << " grid=" << q.optimize.grid_points;
    };
    ASSERT_TRUE(same_result(got, want)) << where(-1);
    const std::vector<link::MultiLinkResult> per_link =
        link::optimize_multilink_per_link(views, p, failure, q.optimize);
    ASSERT_EQ(per_link.size(), views.size());
    for (int j = 0; j < n; ++j) {
      ASSERT_TRUE(same_result(per_link[static_cast<std::size_t>(j)],
                              oracle_multilink(views, p, failure, q.optimize, j)))
          << where(j);
    }

    degenerate += p.d0_m <= p.min_distance_m ? 1 : 0;
    cap_binds += (want.burst_link >= 0 && n > 1 && want.trickle_bytes == p.mdata_bytes) ? 1 : 0;
    ++law_seen[static_cast<int>(q.law)];
  }
  // Every axis of the draw was actually exercised.
  EXPECT_GT(degenerate, 100);
  EXPECT_GT(cap_binds, 100);
  for (const int seen : law_seen) EXPECT_GT(seen, 1000);
}

TEST(MultiLinkTabulated, PerLinkPassMatchesEveryForcedCall) {
  const auto sets = link_sets();
  FOR_ALL(900, 0xFE11ULL, g) {
    const auto& set = sets[static_cast<std::size_t>(g.uniform_int(0, 2))];
    const std::vector<const link::LinkBackend*> views = set->views();
    const policy::Query q = draw_query(g);
    const link::MultiLinkParams p = params_of(q);
    const uav::FailureModel failure = failure_of(q);

    const std::vector<link::MultiLinkResult> all =
        link::optimize_multilink_per_link(views, p, failure, q.optimize);
    ASSERT_EQ(all.size(), views.size());
    for (int j = 0; j < static_cast<int>(views.size()); ++j) {
      const link::MultiLinkResult want = oracle_multilink(views, p, failure, q.optimize, j);
      ASSERT_TRUE(same_result(all[static_cast<std::size_t>(j)], want))
          << "link " << j << " of " << views.size() << " d0=" << p.d0_m
          << " M=" << p.mdata_bytes << " grid=" << q.optimize.grid_points;
    }
  }
  EXPECT_TRUE(link::optimize_multilink_per_link({}, {1500.0, 10.0, 5e7, 20.0},
                                                uav::FailureModel(1e-3))
                  .empty());
}

/// The service's view of an oracle election: what decide_multilink_per_link
/// must put in the slot of the forced link.
policy::MultiLinkDecision service_answer(const policy::Query& q, const link::MultiLinkResult& r) {
  policy::MultiLinkDecision d;
  d.decision.d_opt_m = r.decision.d_opt_m;
  d.decision.v_opt_mps = q.speed_mps;
  d.decision.utility = r.decision.utility;
  d.decision.cdelay_s = r.decision.cdelay_s;
  d.decision.discount = r.decision.discount;
  d.decision.rho_per_m = failure_of(q).rho();
  d.decision.boundary = r.decision.boundary;
  d.decision.evaluations = r.decision.evaluations;
  d.burst_link = r.burst_link;
  d.trickle_bytes = r.trickle_bytes;
  d.burst_bytes = r.burst_bytes;
  return d;
}

/// The fleet's re-election entry point: one pass answers every forced
/// election, bit for bit against the oracle, and the exact counter
/// advances by one per answer — as one forced call per link would.
TEST(MultiLinkTabulated, ServiceReElectionMatchesForcedDecides) {
  const link::LinkBackendConfig wifi = link::LinkBackendConfig::wifi_80211n();
  const core::PaperLogThroughput model(wifi.wifi_a, wifi.wifi_b, wifi.name, wifi.wifi_scale,
                                       wifi.min_distance_m);
  const auto sets = link_sets();
  std::vector<std::unique_ptr<policy::DecisionService>> services;
  for (const auto& set : sets) {
    services.push_back(std::make_unique<policy::DecisionService>(model));
    services.back()->install_links(set);
  }
  // No link set installed: every answer is the tagged fallback.
  services.push_back(std::make_unique<policy::DecisionService>(model));

  FOR_ALL(600, 0x4EE1ULL, g) {
    const std::size_t si = static_cast<std::size_t>(g.uniform_int(0, 3));
    const policy::DecisionService& service = *services[si];
    const bool installed = si < sets.size();
    // One slot per installed link; with no set, any count of fallbacks.
    const std::size_t slots = installed ? sets[si]->size() : 1 + (g.chance(0.5) ? 1 : 0);
    const policy::Query q = draw_query(g);

    std::vector<policy::MultiLinkDecision> got(slots);
    const policy::DecisionService::Counters before = service.counters();
    service.decide_multilink_per_link(q, got);
    const policy::DecisionService::Counters mid = service.counters();
    EXPECT_EQ(mid.exact - before.exact, slots);
    EXPECT_EQ(mid.table, before.table);

    policy::MultiLinkDecision fallback;
    if (!installed) {
      // The single-link exact optimum, tagged (decide_one: no table, so exact).
      fallback.decision = service.decide_one(q);
      fallback.decision.fallback_reason = policy::FallbackReason::kNoLinkSet;
      fallback.burst_bytes = q.mdata_bytes;
    }
    for (std::size_t j = 0; j < slots; ++j) {
      const policy::MultiLinkDecision want =
          installed ? service_answer(q, oracle_multilink(sets[si]->views(), params_of(q),
                                                         failure_of(q), q.optimize,
                                                         static_cast<int>(j)))
                    : fallback;
      ASSERT_TRUE(same_decision(got[j], want))
          << "service " << si << " link " << j << " of " << slots << " d0=" << q.d0_m
          << " M=" << q.mdata_bytes << " grid=" << q.optimize.grid_points;
    }
  }
}

/// decide_multilink_per_link is const on a shared service: its per-call
/// workspace must keep concurrent re-elections race-free (the TSan tree
/// runs this suite).
TEST(MultiLinkTabulated, ConcurrentReElectionsAreRaceFree) {
  const link::LinkBackendConfig wifi = link::LinkBackendConfig::wifi_80211n();
  const core::PaperLogThroughput model(wifi.wifi_a, wifi.wifi_b, wifi.name, wifi.wifi_scale,
                                       wifi.min_distance_m);
  policy::DecisionService service(model);
  service.install_links(link_sets()[1]);
  policy::Query q;
  q.d0_m = 1200.0;
  q.speed_mps = 12.0;
  q.mdata_bytes = 4e7;
  q.rho_per_m = 1e-3;
  std::vector<policy::MultiLinkDecision> want(4);
  service.decide_multilink_per_link(q, want);

  std::vector<std::vector<policy::MultiLinkDecision>> got(
      4, std::vector<policy::MultiLinkDecision>(4));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < got.size(); ++t) {
    pool.emplace_back([&, t] { service.decide_multilink_per_link(q, got[t]); });
  }
  for (std::thread& th : pool) th.join();
  for (const auto& answers : got) {
    for (std::size_t j = 0; j < want.size(); ++j) EXPECT_TRUE(same_decision(answers[j], want[j]));
  }
  EXPECT_EQ(service.counters().exact, 4u * 5u);
}

}  // namespace
}  // namespace skyferry

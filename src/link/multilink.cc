#include "link/multilink.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "exp/codec.h"

namespace skyferry::link {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Trapezoid segments of the path-mean rate. Deterministic and fixed so
/// decisions are reproducible; 8 segments resolve every backend's
/// piecewise curve well enough for a trickle *estimate* (the sim layer,
/// not this planner, is the ground truth for delivered bytes).
constexpr int kPathSegments = 8;

/// The single definition of core::optimize()'s search schedule. Sharing
/// the template — not keeping a copy in sync — is what guarantees a
/// single-802.11n-backend run evaluates the identical FP expression at
/// the identical points and lands on the bit-identical decision
/// (tests/link/multilink_contract).
using core::golden_grid_search;
using SearchOut = core::ScalarSearchResult;

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) noexcept {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Ferry time from d0 to d at speed v (0 once there).
double tship_at(double d_m, const MultiLinkParams& p) noexcept {
  return d_m >= p.d0_m ? 0.0 : (p.d0_m - d_m) / p.speed_mps;
}

/// The burst link's availability-discounted rate at d (clamped to the
/// anti-collision floor).
double burst_rate_bps(const LinkBackend& bk, double d_m, const MultiLinkParams& p) noexcept {
  return bk.rate_bps(std::max(d_m, p.min_distance_m)) * bk.availability();
}

}  // namespace

double trickle_bytes(const LinkBackend& bk, double d_m, const MultiLinkParams& p) {
  const double window = tship_at(d_m, p) - bk.config().session_setup_s;
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

namespace {

/// The burst link's delay decomposition at (d, burst_bytes). The FP
/// expression is core::CommDelayModel/UtilityFunction verbatim, plus
/// the availability discount on the rate (·1.0 for 802.11n — exact
/// identity) and the fixed session latency (+0.0 for 802.11n).
struct BurstEval {
  double tship_s{0.0};
  double ttx_s{kInf};
  double cdelay_s{kInf};
  double discount{0.0};
  double utility{0.0};
};

/// The decomposition from its per-point parts. Both the direct
/// evaluation and the tabulated grid go through this one expression,
/// which is what keeps a tabulated grid value bit-identical to it.
BurstEval burst_from(double tship_s, double rate_bps, double latency_s, double discount,
                     double burst_bytes) noexcept {
  BurstEval e;
  e.tship_s = tship_s;
  e.ttx_s = rate_bps <= 0.0 ? kInf : burst_bytes * 8.0 / rate_bps;
  e.cdelay_s = e.tship_s + e.ttx_s + latency_s;
  e.discount = discount;
  e.utility = (e.cdelay_s > 0.0 && e.cdelay_s != kInf) ? e.discount / e.cdelay_s : 0.0;
  return e;
}

BurstEval eval_burst(const LinkBackend& bk, double d_m, double burst_bytes,
                     const MultiLinkParams& p, const uav::FailureModel& failure) {
  return burst_from(tship_at(d_m, p), burst_rate_bps(bk, d_m, p), bk.latency_s(),
                    failure.discount(p.d0_m, d_m), burst_bytes);
}

core::Boundary classify(double d, double lo, double hi) noexcept {
  const double eps = 1e-6 * std::max(hi - lo, 1.0);
  if (d >= hi - eps) return core::Boundary::kTransmitNow;
  if (d <= lo + eps) return core::Boundary::kAtFloor;
  return core::Boundary::kInterior;
}

core::OptimizeResult to_result(const BurstEval& e, double d, double lo, double hi, int evals) {
  core::OptimizeResult r;
  r.d_opt_m = d;
  r.utility = e.utility;
  r.cdelay_s = e.cdelay_s;
  r.discount = e.discount;
  r.boundary = classify(d, lo, hi);
  r.evaluations = evals;
  return r;
}

/// One decision's solver and its per-call workspace. Every search of a
/// decision — each link's single-link search and each joint search —
/// scans the same coarse grid d_i over [min_d, d0], so every per-point
/// quantity is tabulated here once instead of once per search: Tship
/// and δ per point, and per link its discounted burst rate and its
/// background trickle. The grid stages read the table; refinement
/// points differ per search and evaluate directly. Both routes build
/// the utility through burst_from() from the same parts, so the table
/// changes no bit of any decision. The workspace lives on this object,
/// never in shared state: a DecisionService is shared const across
/// threads.
class Solver {
 public:
  Solver(const std::vector<const LinkBackend*>& links, const MultiLinkParams& p,
         const uav::FailureModel& failure, const core::OptimizeOptions& opt)
      : links_(links),
        p_(p),
        failure_(failure),
        opt_(opt),
        n_links_(static_cast<int>(links.size())),
        // hi <= lo collapses every search to one direct evaluation: no
        // grid. (Written as the search's own test, so a NaN bound still
        // gets the grid the search will scan.)
        n_(p.d0_m <= p.min_distance_m ? 0 : core::search_grid_size(opt)) {
    // Columns: Tship, δ, then one discounted-rate column per link; the
    // trickle columns follow once a joint search needs them (reserved
    // up front, so adding them never reallocates).
    const int trickle_cols = n_links_ > 1 ? n_links_ : 0;
    table_.reserve(static_cast<std::size_t>(n_) *
                   static_cast<std::size_t>(2 + n_links_ + trickle_cols));
    table_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(2 + n_links_));
    for (int i = 0; i < n_; ++i) {
      const double d = core::search_grid_point(lo(), hi(), i, n_);
      table_[at(0, i)] = tship_at(d, p_);
      table_[at(1, i)] = failure_.discount(p_.d0_m, d);
      for (int k = 0; k < n_links_; ++k) table_[at(2 + k, i)] = burst_rate_bps(link(k), d, p_);
    }
  }

  [[nodiscard]] double lo() const noexcept { return p_.min_distance_m; }
  [[nodiscard]] double hi() const noexcept { return p_.d0_m; }

  /// Pass 1: link j alone — the legacy "now or later?" problem on that
  /// link's own rate/latency/availability profile.
  [[nodiscard]] core::OptimizeResult single(int j) const {
    const LinkBackend& bk = link(j);
    const SearchOut s = golden_grid_search(
        lo(), hi(), [&](double d) { return eval_burst(bk, d, p_.mdata_bytes, p_, failure_).utility; },
        [&](int i, double) { return grid_utility(j, i, p_.mdata_bytes); }, opt_);
    return to_result(eval_burst(bk, s.d, p_.mdata_bytes, p_, failure_), s.d, lo(), hi(), s.evals);
  }

  /// Pass 2: the joint search with j as the burst link, given every
  /// link's pass-1 result. With one link the joint objective IS the
  /// single objective — the pass-1 result is reused verbatim, which is
  /// what makes the single-backend configuration bit-identical to
  /// core::optimize().
  [[nodiscard]] SearchOut joint(int j, const std::vector<core::OptimizeResult>& singles) {
    const core::OptimizeResult& s = singles[static_cast<std::size_t>(j)];
    if (n_links_ == 1) return {s.d_opt_m, s.utility, s.evaluations};
    tabulate_trickles();
    SearchOut cand = golden_grid_search(
        lo(), hi(), [&](double d) { return joint_utility(j, d); },
        [&](int i, double) { return grid_utility(j, i, p_.mdata_bytes - grid_trickle(j, i)); },
        opt_);
    // Dominance net: the joint objective dominates the single one
    // pointwise, but the two searches can refine into different
    // brackets — evaluating the joint objective at the single-link
    // optimum guarantees result-level dominance too.
    const double v_single = joint_utility(j, s.d_opt_m);
    ++cand.evals;
    if (v_single > cand.val) {
      cand.d = s.d_opt_m;
      cand.val = v_single;
    }
    return cand;
  }

  /// The result fields of burst link j bursting at `best.d`; r.single
  /// must already hold pass 1.
  void finish(int j, const SearchOut& best, MultiLinkResult& r) const {
    r.burst_link = j;
    r.trickle_by_link.assign(static_cast<std::size_t>(n_links_), 0.0);
    // Per-link trickles, rescaled proportionally when the Mdata cap
    // binds so they always sum to the reported total (the raw sum
    // replays joint_trickle's accumulation order, keeping
    // trickle_bytes exact).
    double raw_sum = 0.0;
    for (int k = 0; k < n_links_; ++k) {
      if (k == j || n_links_ == 1) continue;
      const double tr = trickle_bytes(link(k), best.d, p_);
      r.trickle_by_link[static_cast<std::size_t>(k)] = tr;
      raw_sum += tr;
    }
    r.trickle_bytes = n_links_ == 1 ? 0.0 : std::min(raw_sum, p_.mdata_bytes);
    if (raw_sum > p_.mdata_bytes && raw_sum > 0.0) {
      const double scale = p_.mdata_bytes / raw_sum;
      for (double& v : r.trickle_by_link) v *= scale;
    }
    r.burst_bytes = p_.mdata_bytes - r.trickle_bytes;
    r.decision = to_result(eval_burst(link(j), best.d, r.burst_bytes, p_, failure_), best.d, lo(),
                           hi(), best.evals);
  }

 private:
  [[nodiscard]] const LinkBackend& link(int k) const noexcept {
    return *links_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::size_t at(int col, int i) const noexcept {
    return static_cast<std::size_t>(col) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(i);
  }

  /// Joint trickle at distance d when link j bursts: every other link
  /// ships in the background during the ferry leg, capped at the batch.
  [[nodiscard]] double joint_trickle(int j, double d) const {
    double total = 0.0;
    for (int k = 0; k < n_links_; ++k) {
      if (k == j) continue;
      total += trickle_bytes(link(k), d, p_);
    }
    return std::min(total, p_.mdata_bytes);
  }
  [[nodiscard]] double joint_utility(int j, double d) const {
    return eval_burst(link(j), d, p_.mdata_bytes - joint_trickle(j, d), p_, failure_).utility;
  }

  /// Link j's utility at grid point i for a burst of `burst_bytes`.
  [[nodiscard]] double grid_utility(int j, int i, double burst_bytes) const noexcept {
    return burst_from(table_[at(0, i)], table_[at(2 + j, i)], link(j).latency_s(),
                      table_[at(1, i)], burst_bytes)
        .utility;
  }
  /// joint_trickle(j, d_i) from the table, summed in the same order.
  [[nodiscard]] double grid_trickle(int j, int i) const noexcept {
    double total = 0.0;
    for (int k = 0; k < n_links_; ++k) {
      if (k == j) continue;
      total += table_[at(2 + n_links_ + k, i)];
    }
    return std::min(total, p_.mdata_bytes);
  }

  void tabulate_trickles() {
    if (trickles_ready_) return;
    trickles_ready_ = true;
    const std::size_t base = table_.size();
    table_.resize(base + static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_links_));
    for (int k = 0; k < n_links_; ++k) {
      for (int i = 0; i < n_; ++i) {
        table_[at(2 + n_links_ + k, i)] =
            trickle_bytes(link(k), core::search_grid_point(lo(), hi(), i, n_), p_);
      }
    }
  }

  const std::vector<const LinkBackend*>& links_;
  const MultiLinkParams& p_;
  const uav::FailureModel& failure_;
  const core::OptimizeOptions& opt_;
  const int n_links_;
  const int n_;  ///< grid points; 0 when hi <= lo
  std::vector<double> table_;
  bool trickles_ready_{false};
};

}  // namespace

MultiLinkResult optimize_multilink(const std::vector<const LinkBackend*>& links,
                                   const MultiLinkParams& p, const uav::FailureModel& failure,
                                   core::OptimizeOptions opt) {
  MultiLinkResult r;
  const int n_links = static_cast<int>(links.size());
  if (n_links == 0) return r;
  r.trickle_by_link.assign(static_cast<std::size_t>(n_links), 0.0);
  Solver solver(links, p, failure, opt);
  r.single.reserve(static_cast<std::size_t>(n_links));
  for (int j = 0; j < n_links; ++j) r.single.push_back(solver.single(j));

  // Elect the burst link.
  int best_j = 0;
  SearchOut best = solver.joint(0, r.single);
  for (int j = 1; j < n_links; ++j) {
    const SearchOut cand = solver.joint(j, r.single);
    if (cand.val > best.val) {
      best_j = j;
      best = cand;
    }
  }
  solver.finish(best_j, best, r);
  return r;
}

std::vector<MultiLinkResult> optimize_multilink_per_link(
    const std::vector<const LinkBackend*>& links, const MultiLinkParams& p,
    const uav::FailureModel& failure, core::OptimizeOptions opt) {
  const int n_links = static_cast<int>(links.size());
  std::vector<MultiLinkResult> out(static_cast<std::size_t>(n_links));
  if (n_links == 0) return out;
  Solver solver(links, p, failure, opt);
  std::vector<core::OptimizeResult> singles;
  singles.reserve(static_cast<std::size_t>(n_links));
  for (int j = 0; j < n_links; ++j) singles.push_back(solver.single(j));
  for (int j = 0; j < n_links; ++j) {
    MultiLinkResult& r = out[static_cast<std::size_t>(j)];
    r.single = singles;
    solver.finish(j, solver.joint(j, singles), r);
  }
  return out;
}

// ---- LinkSet ---------------------------------------------------------------

LinkSet::LinkSet(std::vector<LinkBackendConfig> configs) : configs_(std::move(configs)) {
  backends_.reserve(configs_.size());
  for (const LinkBackendConfig& c : configs_) backends_.push_back(make_backend(c));
}

std::vector<const LinkBackend*> LinkSet::views() const {
  std::vector<const LinkBackend*> v;
  v.reserve(backends_.size());
  for (const auto& b : backends_) v.push_back(b.get());
  return v;
}

std::string LinkSet::checksum() const {
  std::uint64_t h = 1469598103934665603ULL;
  for (const LinkBackendConfig& c : configs_) {
    h = fnv1a(h, c.to_json().dump());
    h = fnv1a(h, "|");
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

io::Json LinkSet::to_json() const {
  io::Json j = io::Json::object();
  j.set("skyferry_link_set", kFormatVersion);
  io::Json arr = io::Json::array();
  for (const LinkBackendConfig& c : configs_) arr.push_back(c.to_json());
  j.set("links", std::move(arr));
  j.set("checksum", checksum());
  return j;
}

LinkSet LinkSet::from_json(const io::Json& j) {
  if (!j.is_object()) throw ConfigError("link set: expected a JSON object");
  const io::Json* version = j.find("skyferry_link_set");
  if (version == nullptr || !version->is_number() ||
      static_cast<int>(version->as_number()) != kFormatVersion) {
    throw ConfigError("link set: unsupported format version (want " +
                      std::to_string(kFormatVersion) + ")");
  }
  const io::Json* arr = j.find("links");
  if (arr == nullptr || !arr->is_array()) throw ConfigError("link set: missing 'links' array");
  std::vector<LinkBackendConfig> configs;
  configs.reserve(arr->items().size());
  for (const io::Json& lj : arr->items()) configs.push_back(LinkBackendConfig::from_json(lj));
  LinkSet set(std::move(configs));
  const io::Json* want = j.find("checksum");
  if (want == nullptr || !want->is_string()) throw ConfigError("link set: missing checksum");
  const std::string have = set.checksum();
  if (want->as_string() != have) {
    throw ConfigError("link set: checksum mismatch (file says " + want->as_string() +
                      ", content hashes to " + have +
                      ") — the link set was tampered with or corrupted");
  }
  return set;
}

void LinkSet::save_atomic(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* fp = std::fopen(tmp.c_str(), "wb");
  if (fp == nullptr) throw ConfigError("link set: cannot open " + tmp + " for writing");
  const std::string text = to_json().dump(1);
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), fp) == text.size() && std::fflush(fp) == 0;
#ifndef _WIN32
  // fsync before rename: the rename must never land ahead of the data.
  const bool synced = wrote && ::fsync(::fileno(fp)) == 0;
#else
  const bool synced = wrote;
#endif
  std::fclose(fp);
  if (!synced) {
    std::remove(tmp.c_str());
    throw ConfigError("link set: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ConfigError("link set: cannot rename " + tmp + " -> " + path);
  }
}

LinkSet LinkSet::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("link set: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto j = io::Json::parse(buf.str(), &error);
  if (!j) throw ConfigError("link set: " + path + " is truncated or not valid JSON (" + error + ")");
  try {
    return from_json(*j);
  } catch (const ConfigError& e) {
    throw ConfigError(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace skyferry::link

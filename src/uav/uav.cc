#include "uav/uav.h"

#include <limits>

#include "sim/rng.h"
#include "uav/failure.h"

namespace skyferry::uav {

Uav::Uav(UavConfig cfg, std::uint64_t seed)
    : cfg_(cfg),
      state_{cfg.start_pos, cfg.start_vel},
      limits_(KinematicLimits::for_platform(cfg.platform)),
      autopilot_(cfg.platform),
      battery_(cfg.platform),
      gps_(cfg.gps, sim::derive_seed(seed, "gps/" + cfg.id)),
      last_fix_(cfg.start_pos) {
  trace_.push({0.0, state_.pos, state_.vel});
  last_trace_t_ = 0.0;
  failure_at_m_ = std::numeric_limits<double>::infinity();
  if (cfg_.failure_rho_per_m > 0.0) {
    sim::Rng rng(sim::derive_seed(seed, "failure/" + cfg_.id));
    failure_at_m_ = FailureModel(cfg_.failure_rho_per_m).sample_failure_distance(rng);
  }
}

bool Uav::failed() const noexcept {
  return battery_.depleted() || odometer_m_ >= failure_at_m_;
}

void Uav::tick(double t_s, double dt_s) {
  if (failed()) return;  // vehicle is down

  const VelocityCommand cmd = autopilot_.update(state_, t_s, dt_s);
  const KinematicState next = step(state_, cmd, limits_, dt_s);
  odometer_m_ += geo::distance(state_.pos, next.pos);
  state_ = next;
  battery_.drain(dt_s, state_.speed());
  last_fix_ = gps_.measure(state_.pos, dt_s);

  if (t_s - last_trace_t_ >= cfg_.trace_sample_period_s) {
    trace_.push({t_s, state_.pos, state_.vel});
    last_trace_t_ = t_s;
  }
}

void Uav::goto_and_hold(const geo::Vec3& pos, double speed_mps, double hold_s,
                        double accept_radius_m) {
  Waypoint wp;
  wp.pos = pos;
  wp.speed_mps = speed_mps;
  wp.hold_s = hold_s;
  wp.accept_radius_m = accept_radius_m;
  autopilot_.add_waypoint(wp);
}

}  // namespace skyferry::uav

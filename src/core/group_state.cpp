#include "core/group_state.hpp"

#include <algorithm>
#include <cmath>

namespace resmatch::core {

namespace {
/// Grants within this tolerance are the same capacity rung.
constexpr double kGrantEps = 1e-9;
}  // namespace

// --- SaGroupState -----------------------------------------------------------

SaGroupState SaGroupState::fresh(MiB requested_mib, double alpha0) noexcept {
  SaGroupState s;
  s.estimate = requested_mib;
  s.last_good = requested_mib;
  s.alpha = alpha0;
  return s;
}

MiB SaGroupState::preview(const CapacityLadder& ladder) const noexcept {
  const MiB safe = ladder.round_up(last_good);
  const MiB probe = ladder.round_up(estimate);
  if (probe + kGrantEps < safe && probe_outstanding) return safe;
  return probe;
}

MiB SaGroupState::commit(const CapacityLadder& ladder) noexcept {
  ++epoch;  // claiming (or bouncing off) the probe slot can change preview()
  // Line 6: round E_i up to the nearest capacity the cluster offers.
  const MiB safe = ladder.round_up(last_good);
  const MiB probe = ladder.round_up(estimate);
  if (probe + kGrantEps < safe) {
    // A grant strictly below the proven capacity is an experiment; at most
    // one may be outstanding per group (concurrent submissions get the
    // last-known-good capacity — see successive_approximation.hpp).
    if (probe_outstanding) return safe;
    probe_outstanding = true;
    probe_grant = probe;
    return probe;
  }
  return probe;
}

void SaGroupState::cancel(MiB granted) noexcept {
  ++epoch;
  // Release the probe slot if this cancelled attempt held it.
  if (probe_outstanding && std::fabs(granted - probe_grant) <= kGrantEps) {
    probe_outstanding = false;
  }
}

bool SaGroupState::apply_feedback(const Feedback& fb, MiB requested_mib,
                                  const CapacityLadder& ladder,
                                  double beta) noexcept {
  ++epoch;
  const bool was_probe =
      probe_outstanding && std::fabs(fb.granted_mib - probe_grant) <= kGrantEps;
  if (was_probe) probe_outstanding = false;

  if (fb.success) {
    // Lines 8-9: the grant worked; remember it and probe lower next time.
    // last_good lives in grant space (a capacity that actually ran a job),
    // so a success at the known-good capacity is naturally a no-op.
    last_good = fb.granted_mib;
    estimate = fb.granted_mib / alpha;
    return true;
  }

  // Lines 10-13: assume insufficient resources (implicit feedback cannot
  // tell); undo the reduction and damp the learning rate. beta = 0
  // freezes the group at the last working capacity.
  //
  // A failure AT the known-good capacity is outside Algorithm 1's
  // one-level history: it means a lower-usage group member's success
  // dragged last_good below this member's need (the within-group
  // variance hazard the paper discusses in §2.3). Recover by escalating
  // one ladder rung (capped at the request, always sufficient by the
  // paper's assumption), so a failing job's retries terminate instead
  // of looping at an under-sized grant.
  const bool failed_at_safe =
      std::fabs(fb.granted_mib - ladder.round_up(last_good)) <= kGrantEps;
  if (failed_at_safe) {
    const auto rung = ladder.next_above(last_good);
    MiB escalated = rung ? *rung : requested_mib;
    // The request is always sufficient (paper §1.3 assumption); never
    // escalate past it unless last_good already sits above it because
    // the ladder's rounding forced a bigger machine.
    escalated = std::min(escalated, std::max(requested_mib, last_good));
    last_good = std::max(last_good, escalated);
  }
  estimate = last_good;
  alpha = std::max(1.0, beta * alpha);
  return false;
}

bool SaGroupState::invariants_hold() const noexcept {
  return alpha >= 1.0 && estimate <= last_good + kGrantEps &&
         std::isfinite(estimate) && std::isfinite(last_good) &&
         estimate >= 0.0;
}

std::array<double, 5> SaGroupState::to_fields() const {
  return {estimate, last_good, alpha, probe_outstanding ? 1.0 : 0.0,
          probe_grant};
}

std::optional<SaGroupState> SaGroupState::from_fields(
    std::span<const double> fields) {
  if (fields.size() != 5) return std::nullopt;
  SaGroupState s;
  s.estimate = fields[0];
  s.last_good = fields[1];
  s.alpha = fields[2];
  s.probe_outstanding = fields[3] != 0.0;
  s.probe_grant = fields[4];
  if (s.alpha < 1.0 || !s.invariants_hold()) return std::nullopt;
  return s;
}

// --- LiGroupState -----------------------------------------------------------

MiB LiGroupState::current_estimate(MiB requested_mib,
                                   const CapacityLadder& ladder,
                                   double margin) const {
  if (recent_usage.empty() || poisoned) {
    // No experience (or a prior under-provisioning event): request as-is.
    return ladder.round_up(requested_mib);
  }
  const MiB peak =
      *std::max_element(recent_usage.begin(), recent_usage.end());
  // Never exceed the original request: the paper assumes requests are
  // sufficient, so the request is always a safe upper bound.
  const MiB target = std::min(peak * margin, requested_mib);
  return ladder.round_up(target);
}

void LiGroupState::apply_feedback(const Feedback& fb, std::size_t window) {
  ++epoch;
  const auto push_usage = [&](MiB used) {
    recent_usage.push_back(used);
    while (recent_usage.size() > window) recent_usage.pop_front();
  };
  if (fb.success) {
    poisoned = false;
    if (fb.used_mib) push_usage(*fb.used_mib);
    return;
  }
  // Failure. Explicit feedback distinguishes resource failures from
  // unrelated faults; only the former invalidates the group's history.
  const bool resource = fb.resource_failure.value_or(true);
  if (resource) {
    poisoned = true;
    // The failed attempt still tells us usage exceeded the grant; keep the
    // observation if reported so the next estimate clears the bar.
    if (fb.used_mib) {
      push_usage(*fb.used_mib);
      poisoned = false;  // we know the real requirement now
    }
  }
}

}  // namespace resmatch::core

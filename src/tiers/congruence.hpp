// Congruence cache for the analytic tier — congruence-profiling-style
// pruning of equivalent design points (after Boston et al.,
// arXiv:2509.18295): two sampled designs whose canonicalized
// (mapping, fabric, per-edge bytes) signatures collide are guaranteed the
// same analytic estimate, so the tier computes it once and reuses it.
//
// The signature serializes everything analytic_estimate() reads —
// per-instance mapping/class/volumes/compute cycles, shared pairs,
// parallel plan, mesh placement, per-edge unique bytes, theta — after
// relabeling instances into a canonical order, so two structurally
// identical designs collide even when Algorithm 1 discovered their
// instances in different orders.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/design_result.hpp"
#include "sys/schedule.hpp"
#include "tiers/analytic.hpp"

namespace hybridic::tiers {

/// Canonical text form of (mapping, fabric, per-edge bytes) for a design.
[[nodiscard]] std::string congruence_signature(
    const sys::AppSchedule& schedule, const core::DesignResult& design,
    double theta_seconds_per_byte);

/// 64-bit key of a signature (FNV-1a finalized with splitmix64).
[[nodiscard]] std::uint64_t congruence_key_of(const std::string& signature);

/// Thread-safe, in-memory estimate memoizer keyed by congruence key.
/// Values for one key are identical whichever thread computes first (the
/// estimator is a pure function of the signature content), so the cache
/// never affects results — only how often the estimator runs. Estimates
/// are cheap to recompute, so nothing here persists across processes.
class CongruenceCache {
public:
  /// The cached estimate for `key`, computing it via `make` on miss.
  [[nodiscard]] TierEstimate get(std::uint64_t key,
                                 const std::function<TierEstimate()>& make);

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, TierEstimate> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hybridic::tiers

// Decomposed layer calls the traced replays share: the pieces of
// TieredEvaluator::analyze and sys::run_experiment, each public call made
// under its own span.
#pragma once

#include <utility>

#include "core/design_result.hpp"
#include "core/interconnect_design.hpp"
#include "sys/executor.hpp"
#include "sys/experiment.hpp"
#include "tiers/tiered_evaluator.hpp"
#include "trace.hpp"

namespace hostbench {

/// The design input TieredEvaluator::analyze builds: the schedule on the
/// evaluator's platform and measured θ.
[[nodiscard]] hybridic::core::DesignInput analytic_design_input(
    const hybridic::sys::AppSchedule& schedule,
    const hybridic::tiers::TieredEvaluator& evaluator);

/// Algorithm 1 twice, each under a `core` span: the proposed design and
/// the NoC-only variant (no shared memory, no adaptive mapping).
[[nodiscard]] std::pair<hybridic::core::DesignResult,
                        hybridic::core::DesignResult>
traced_designs(const hybridic::core::DesignInput& input);

/// Add one simulated run's event count and NoC/bus bytes to `counters`.
void count_run(const hybridic::sys::RunResult& run, LayerCounters& counters);

/// The parts of sys::run_experiment that do the work — design input,
/// Algorithm 1 twice, the software, baseline, proposed and NoC-only runs —
/// each under its span. Resources and energy are left out.
[[nodiscard]] hybridic::sys::AppExperiment traced_experiment(
    const hybridic::sys::AppSchedule& schedule,
    const hybridic::sys::PlatformConfig& platform, LayerCounters& counters);

}  // namespace hostbench

#include "layers.hpp"

#include <tuple>

namespace hostbench {

using namespace hybridic;

core::DesignInput analytic_design_input(
    const sys::AppSchedule& schedule,
    const tiers::TieredEvaluator& evaluator) {
  const sys::PlatformConfig& platform = evaluator.platform();
  core::DesignInput input;
  input.graph = schedule.graph;
  input.kernels = schedule.specs;
  input.kernel_clock = platform.kernel_clock;
  input.theta.seconds_per_byte = evaluator.theta_seconds_per_byte();
  input.stream_overhead_seconds = platform.stream_overhead_seconds;
  input.duplication_overhead_seconds = platform.duplication_overhead_seconds;
  return input;
}

std::pair<core::DesignResult, core::DesignResult> traced_designs(
    const core::DesignInput& input) {
  std::pair<core::DesignResult, core::DesignResult> out;
  {
    const Span span{Layer::kCore};
    out.first = core::design_interconnect(input);
  }
  core::DesignInput noc_only = input;
  noc_only.enable_shared_memory = false;
  noc_only.enable_adaptive_mapping = false;
  {
    const Span span{Layer::kCore};
    out.second = core::design_interconnect(noc_only);
  }
  return out;
}

void count_run(const sys::RunResult& run, LayerCounters& counters) {
  counters.sim_trace_events += run.trace.events().size();
  counters.sim_noc_bytes += run.fabric_usage(sys::engine::Fabric::kNoc).bytes;
  counters.sim_bus_bytes += run.fabric_usage(sys::engine::Fabric::kBus).bytes;
}

sys::AppExperiment traced_experiment(const sys::AppSchedule& schedule,
                                     const sys::PlatformConfig& platform,
                                     LayerCounters& counters) {
  sys::AppExperiment exp;
  exp.app_name = schedule.app_name;
  core::DesignInput input;
  {
    const Span span{Layer::kCore};
    input = sys::make_design_input(schedule, platform);
  }
  std::tie(exp.proposed_design, exp.noc_only_design) = traced_designs(input);
  {
    const Span span{Layer::kSimSoftware};
    exp.sw = sys::run_software(schedule, platform);
  }
  {
    const Span span{Layer::kSimBaseline};
    exp.baseline = sys::run_baseline(schedule, platform);
  }
  {
    const Span span{Layer::kSimProposed};
    exp.proposed =
        sys::run_designed(schedule, exp.proposed_design, platform, "proposed");
  }
  {
    const Span span{Layer::kSimNocOnly};
    exp.noc_only =
        sys::run_designed(schedule, exp.noc_only_design, platform, "noc-only");
  }
  for (const sys::RunResult* run :
       {&exp.sw, &exp.baseline, &exp.proposed, &exp.noc_only}) {
    count_run(*run, counters);
  }
  return exp;
}

}  // namespace hostbench

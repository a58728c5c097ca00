// Domain example: a camera pipeline that alternates between two modes —
// edge detection (canny) and feature tracking (klt) — on one FPGA.
// Compares provisioning strategies for the kernels' custom interconnect,
// including the paper's future-work idea of reconfiguring it at runtime.
//
// Build and run:  ./build/examples/multi_app_reconfig [frames-per-mode]
#include <iostream>

#include "apps/canny.hpp"
#include "apps/klt.hpp"
#include "reconfig/multi_app.hpp"
#include "util/table.hpp"
#include "util/text.hpp"

using namespace hybridic;

int main(int argc, char** argv) {
  std::uint32_t frames_per_mode = 25;
  if (argc > 1 && !text::parse_u32(argv[1], frames_per_mode)) {
    std::cerr << "usage: " << argv[0] << " [frames-per-mode]\n";
    return 2;
  }

  std::cout << "profiling both camera modes...\n";
  const apps::ProfiledApp canny = apps::run_canny(apps::CannyConfig{});
  const apps::ProfiledApp klt = apps::run_klt(apps::KltConfig{});
  const sys::AppSchedule canny_schedule = canny.schedule();
  const sys::AppSchedule klt_schedule = klt.schedule();

  // The camera toggles modes: detect edges for a burst, then track.
  std::vector<reconfig::WorkloadPhase> day;
  for (int burst = 0; burst < 4; ++burst) {
    day.push_back(
        reconfig::WorkloadPhase{"canny", &canny_schedule, frames_per_mode});
    day.push_back(
        reconfig::WorkloadPhase{"klt", &klt_schedule, frames_per_mode});
  }

  Table table{"Camera pipeline: " + std::to_string(frames_per_mode) +
              " frames per mode, 4 mode toggles"};
  table.set_header({"strategy", "compute", "reconfig", "total",
                    "interconnect LUTs"});
  const sys::PlatformConfig platform;
  for (const reconfig::Strategy strategy :
       {reconfig::Strategy::kBusOnly, reconfig::Strategy::kStaticUnion,
        reconfig::Strategy::kPerAppReconfig}) {
    const reconfig::ScenarioResult result =
        reconfig::evaluate_scenario(day, strategy, platform);
    table.add_row(
        {reconfig::to_string(strategy),
         format_fixed(result.compute_total_seconds * 1e3, 1) + " ms",
         format_fixed(result.reconfig_total_seconds * 1e3, 2) + " ms",
         format_fixed(result.total_seconds() * 1e3, 1) + " ms",
         std::to_string(result.provisioned_interconnect.luts)});
  }
  table.render(std::cout);
  std::cout << "\ncanny needs 'NoC, SM, P'; klt needs only 'SM'. "
               "Reconfiguring between them keeps the fabric at the size "
               "of the larger single design; the union must host both at "
               "once. Try 1 frame per mode to see reconfiguration lose.\n";
  return 0;
}

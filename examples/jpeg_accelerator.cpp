// The paper's §V-B case study end to end: decode a JPEG-style bitstream
// with the four-kernel decoder, profile it, design the hybrid interconnect
// (duplicated huff_ac_dec, dquantz/j_rev_dct shared memory, adaptive NoC
// mapping), and compare all four system variants.
//
// Build and run:  ./build/examples/jpeg_accelerator [width] [height]
#include <iostream>

#include "util/table.hpp"
#include "apps/jpeg.hpp"
#include "sys/experiment.hpp"
#include "util/text.hpp"

using namespace hybridic;

int main(int argc, char** argv) {
  apps::JpegConfig config;
  if ((argc > 1 && !text::parse_u32(argv[1], config.width)) ||
      (argc > 2 && !text::parse_u32(argv[2], config.height))) {
    std::cerr << "usage: " << argv[0] << " [width] [height]\n";
    return 2;
  }

  std::cout << "decoding a " << config.width << "x" << config.height
            << " synthetic JPEG-style image under the profiler...\n";
  const apps::ProfiledApp app = apps::run_jpeg(config);
  std::cout << "functional check: " << (app.verified ? "PASS" : "FAIL")
            << " — " << app.verification_note << "\n\n";
  std::cout << app.graph().summary() << "\n";

  const sys::AppSchedule schedule = app.schedule();
  const sys::AppExperiment exp = sys::run_experiment(
      schedule, sys::PlatformConfig{}, app.environment);

  std::cout << exp.proposed_design.describe(app.graph()) << "\n";

  Table table{"System comparison"};
  table.set_header({"system", "total", "kernel compute", "kernel comm",
                    "LUTs", "registers"});
  const auto row = [&table](const std::string& name,
                            const sys::RunResult& run,
                            const core::Resources& res) {
    table.add_row({name, format_fixed(run.total_seconds * 1e3, 3) + " ms",
                   format_fixed(run.kernel_compute_seconds * 1e3, 3) + " ms",
                   format_fixed(run.kernel_comm_seconds * 1e3, 3) + " ms",
                   std::to_string(res.luts), std::to_string(res.regs)});
  };
  row("software", exp.sw, core::Resources{0, 0});
  row("baseline (bus)", exp.baseline, exp.baseline_resources);
  row("proposed (hybrid)", exp.proposed, exp.proposed_resources);
  row("NoC-only", exp.noc_only, exp.noc_only_resources);
  table.render(std::cout);

  std::cout << "\nspeed-up vs baseline: "
            << format_ratio(exp.proposed_app_speedup_vs_baseline())
            << "  energy: "
            << format_percent(1.0 - exp.energy_ratio_vs_baseline())
            << " saved\n";
  return 0;
}

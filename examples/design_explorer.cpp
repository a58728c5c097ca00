// Design-space exploration on a user-defined application: toggle each of
// Algorithm 1's mechanisms (shared memory, adaptive mapping, duplication,
// parallel cases) and report what each contributes — an ablation you can
// run on your own workload.
//
// Build and run:  ./build/examples/design_explorer [seed]
#include <iostream>

#include "util/table.hpp"
#include "apps/synthetic.hpp"
#include "core/interconnect_design.hpp"
#include "core/resource_model.hpp"
#include "sys/experiment.hpp"
#include "util/text.hpp"

using namespace hybridic;

int main(int argc, char** argv) {
  apps::SyntheticConfig app_config;
  app_config.seed = 7;
  if (argc > 1 && !text::parse_u64(argv[1], app_config.seed)) {
    std::cerr << "usage: " << argv[0] << " [seed]\n";
    return 2;
  }
  app_config.kernel_count = 8;
  app_config.duplicable_probability = 0.4;

  const apps::ProfiledApp app = apps::make_synthetic_app(app_config);
  const sys::AppSchedule schedule = app.schedule();
  const sys::PlatformConfig platform;
  std::cout << "generated application '" << app.name << "' with "
            << schedule.specs.size() << " kernels\n\n";
  std::cout << app.graph().summary() << "\n";

  const sys::RunResult baseline = sys::run_baseline(schedule, platform);
  std::cout << "baseline (bus only): "
            << format_fixed(baseline.total_seconds * 1e3, 3) << " ms\n\n";

  struct Variant {
    std::string name;
    bool shared_memory;
    bool adaptive;
    bool duplication;
    bool parallel;
  };
  const Variant variants[] = {
      {"full Algorithm 1", true, true, true, true},
      {"no shared memory", false, true, true, true},
      {"no adaptive mapping", true, false, true, true},
      {"no duplication", true, true, false, true},
      {"no parallel cases", true, true, true, false},
      {"NoC-only (naive)", false, false, true, true},
  };

  Table table{"Design-space exploration"};
  table.set_header({"variant", "solution", "routers", "interconnect LUTs",
                    "time ms", "speed-up vs baseline"});
  for (const Variant& variant : variants) {
    core::DesignInput input = sys::make_design_input(schedule, platform);
    input.enable_shared_memory = variant.shared_memory;
    input.enable_adaptive_mapping = variant.adaptive;
    input.enable_duplication = variant.duplication;
    input.enable_parallel = variant.parallel;
    const core::DesignResult design = core::design_interconnect(input);
    const sys::RunResult run =
        sys::run_designed(schedule, design, platform, variant.name);
    const core::Resources area = core::interconnect_resources(design);
    table.add_row(
        {variant.name, design.solution_tag(),
         std::to_string(design.uses_noc() ? design.noc->router_count()
                                          : 0),
         std::to_string(area.luts),
         format_fixed(run.total_seconds * 1e3, 3),
         format_ratio(baseline.total_seconds / run.total_seconds)});
  }
  table.render(std::cout);
  std::cout << "\ntry other seeds to explore different application "
               "shapes: ./design_explorer 42\n";
  return 0;
}

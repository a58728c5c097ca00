// paper_apps: the paper's own traffic. One op is one application (canny,
// jpeg, klt, fluid) taken through apps::run_paper_app, then
// ProfiledApp::schedule, then sys::run_experiment — what `hybridic_cli
// <app>` runs. Profiling runs the real application code; the cycle
// simulator runs all four system variants. Ops run one after another on
// one thread, in whole passes over the four apps in the paper's order.
#include <cmath>
#include <map>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "apps/app.hpp"
#include "sys/experiment.hpp"

namespace hostbench {
using namespace hybridic;
namespace {

constexpr int kMeasuredPasses = 2;

/// Proposed-vs-baseline application speed-ups of the paper's Table III
/// (the parenthesised "vs baseline app" column of EXPERIMENTS.md).
const std::map<std::string, double>& paper_speedups() {
  static const std::map<std::string, double> kTable = {
      {"canny", 1.83}, {"jpeg", 2.87}, {"klt", 1.26}, {"fluid", 1.59}};
  return kTable;
}

/// The simulated results of one app, as text; identical runs give
/// identical text.
std::string fingerprint(const sys::AppExperiment& exp) {
  std::ostringstream out;
  for (const sys::RunResult* run :
       {&exp.sw, &exp.baseline, &exp.proposed, &exp.noc_only}) {
    out << run->system_name << ' ' << exact(run->total_seconds) << ' '
        << exact(run->kernel_compute_seconds) << ' '
        << exact(run->kernel_comm_seconds) << ' ' << run->trace.events().size()
        << '\n';
  }
  out << exp.proposed_design.solution_tag() << ' '
      << exp.proposed_resources.luts << ' ' << exp.proposed_resources.regs
      << ' ' << exact(exp.proposed_energy_joules) << '\n';
  return out.str();
}

/// Fig. 6: huff_ac_dec duplicated (five kernel instances) and one
/// crossbar-shared pair dquantz_lum -> j_rev_dct. Empty when it holds.
std::string check_figure_six(const core::DesignResult& design) {
  if (design.instances.size() != 5) {
    return "jpeg design has " + std::to_string(design.instances.size()) +
           " kernel instances, Fig. 6 has 5";
  }
  std::size_t ac_instances = 0;
  for (const core::KernelInstance& instance : design.instances) {
    ac_instances += instance.name.rfind("huff_ac_dec", 0) == 0 ? 1 : 0;
  }
  if (ac_instances != 2 || design.parallel.duplicated_specs.size() != 1) {
    return "jpeg design does not duplicate huff_ac_dec";
  }
  if (design.shared_pairs.size() != 1 ||
      design.instances[design.shared_pairs[0].producer_instance].name !=
          "dquantz_lum" ||
      design.instances[design.shared_pairs[0].consumer_instance].name !=
          "j_rev_dct" ||
      design.shared_pairs[0].style != mem::SharingStyle::kCrossbar) {
    return "jpeg design lacks the crossbar pair dquantz_lum -> j_rev_dct";
  }
  return "";
}

/// Runs the untraced op and keeps the first result of each app to compare
/// every later run against.
class PaperOps {
public:
  explicit PaperOps(Result& result) : result_(result) {}

  /// One op: profile, schedule, run_experiment. Returns the op's host
  /// time, stopped before the output checks.
  Lap run(const std::string& name) {
    const Stopwatch op;
    const apps::ProfiledApp app = apps::run_paper_app(name);
    const sys::AppSchedule schedule = app.schedule();
    const sys::AppExperiment exp =
        sys::run_experiment(schedule, platform_, app.environment);
    const Lap lap = op.lap();
    check(name, app, exp);
    return lap;
  }

  /// The traced replay of run(), call by call under spans. Checks the
  /// simulated runs against run()'s.
  void run_traced(const std::string& name, std::uint64_t op,
                  LayerCounters& counters) {
    const Span root{Layer::kOp, op};
    std::optional<apps::ProfiledApp> app;
    {
      const Span span{Layer::kProf};
      app.emplace(apps::run_paper_app(name));
    }
    sys::AppSchedule schedule;
    {
      const Span span{Layer::kSched};
      schedule = app->schedule();
    }
    const sys::AppExperiment exp =
        traced_experiment(schedule, platform_, counters);
    const auto same = [](const sys::RunResult& a, const sys::RunResult& b) {
      return a.total_seconds == b.total_seconds &&
             a.kernel_seconds() == b.kernel_seconds();
    };
    const auto first = first_.find(name);
    result_.attempted += 1;
    if (first == first_.end() || !app->verified ||
        !same(exp.sw, first->second.sw) ||
        !same(exp.baseline, first->second.baseline) ||
        !same(exp.proposed, first->second.proposed) ||
        !same(exp.noc_only, first->second.noc_only) ||
        exp.proposed_design.solution_tag() !=
            first->second.proposed_design.solution_tag()) {
      result_.fail(1, "traced replay of " + name +
                          " differs from run_experiment");
    }
  }

  [[nodiscard]] const std::map<std::string, sys::AppExperiment>& first()
      const {
    return first_;
  }

private:
  void check(const std::string& name, const apps::ProfiledApp& app,
             const sys::AppExperiment& exp) {
    result_.attempted += 1;
    if (!app.verified) {
      result_.fail(1, name + " failed its own verification: " +
                          app.verification_note);
      return;
    }
    if (name == "jpeg") {
      const std::string fig6 = check_figure_six(exp.proposed_design);
      if (!fig6.empty()) {
        result_.fail(1, fig6);
        return;
      }
    }
    const auto [first, inserted] = first_.emplace(name, exp);
    if (!inserted && fingerprint(first->second) != fingerprint(exp)) {
      result_.fail(1, name + " simulated results differ between runs");
    }
  }

  Result& result_;
  sys::PlatformConfig platform_;
  std::map<std::string, sys::AppExperiment> first_;
};

}  // namespace

Result run_paper_apps(const Options& options) {
  Result result;
  // Set-up is a reference pass: one pass over the four apps whose
  // simulated results the passes after it must reproduce (every pass must
  // also reproduce the run's first). The untraced run works in rounds of
  // one reference pass and kMeasuredPasses measured passes, so setup_s,
  // the median reference pass, samples the same stretch of time as
  // ops_per_s. The apps run the paper's own inputs, which no seed
  // changes, in the same order every pass: the order changes what each
  // app finds in the allocator, and with it the host time. The untraced
  // figures are process CPU time, which on one thread is the wall time
  // the ops would take without hypervisor steal (README §Steadiness).
  const std::vector<std::string> names = apps::paper_app_names();
  PaperOps ops{result};
  std::vector<double> setup_seconds;
  const auto reference_pass = [&] {
    const Stopwatch setup;
    for (const std::string& name : names) {
      (void)ops.run(name);
    }
    setup_seconds.push_back(setup.lap().cpu_ms / 1000.0);
  };

  const Clock::time_point start = Clock::now();
  if (!options.trace) {
    std::vector<double> per_second;
    std::map<std::string, std::vector<double>> app_ms;
    std::size_t unit = 0;
    do {
      pin_unit(unit++, 1);
      reference_pass();
      for (int pass = 0; pass < kMeasuredPasses; ++pass) {
        pin_unit(unit++, 1);
        double pass_ms = 0.0;
        for (const std::string& name : names) {
          const double ms = ops.run(name).cpu_ms;
          pass_ms += ms;
          app_ms[name].push_back(ms);
        }
        per_second.push_back(static_cast<double>(names.size()) * 1000.0 /
                             pass_ms);
      }
    } while (ms_since(start) < options.seconds * 1000.0);
    add_end_to_end(result, median(setup_seconds), per_second, app_ms);
    for (const auto& [name, samples] : app_ms) {
      result.extra.push_back({name + "_ms_p50", median(samples), "ms"});
      result.samples[name + "_ms_p50"] = samples.size();
    }
  } else {
    reference_pass();
    LayerCounters counters;
    double untraced_ms = 0.0;
    double passes = 0.0;
    std::uint64_t op = 0;
    do {
      for (const std::string& name : names) {
        untraced_ms += ops.run(name).wall_ms;
        ops.run_traced(name, op++, counters);
      }
      passes += 1.0;
    } while (ms_since(start) < options.seconds * 1000.0);
    const std::vector<SpanRecord> spans = take_spans();
    write_spans(run_stem(options) + "-spans.jsonl", spans);
    add_per_layer(result, spans, counters, passes, untraced_ms);
  }

  // Simulated accuracy against the paper (an output, not a timing).
  double log_error = 0.0;
  for (const auto& [name, exp] : ops.first()) {
    const double simulated = exp.proposed_app_speedup_vs_baseline();
    result.extra.push_back({name + "_speedup_vs_baseline", simulated, "x"});
    log_error += std::abs(std::log(simulated / paper_speedups().at(name)));
  }
  if (!ops.first().empty()) {
    result.extra.push_back(
        {"paper_speedup_err",
         std::exp(log_error / static_cast<double>(ops.first().size())) - 1.0,
         "frac"});
  }
  return result;
}

}  // namespace hostbench

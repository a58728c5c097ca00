// Shared pieces of the host-time benchmark: options, results, timing,
// percentiles and digests. Every time here is host time (wall-clock or
// CPU time); simulated times are outputs the workloads check, never
// metrics they time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// CPU time this process has used so far, all threads, in ms. Unlike
/// wall-clock time it does not run while the hypervisor gives this vCPU
/// to another tenant (steal), which on a shared host stretches a
/// single-threaded op's wall time by 10-40% in bursts lasting seconds.
[[nodiscard]] double process_cpu_ms();

/// CPU time the calling thread has used so far, in ms.
[[nodiscard]] double thread_cpu_ms();

/// Pin the calling thread, and every thread it starts afterwards, to
/// `width` CPUs of the process's starting CPU set, the `unit`-th window
/// of a rotation that gives every CPU the same share of units. On a
/// shared host each vCPU runs at its own speed, set by its neighbours and
/// drifting over minutes (README §Steadiness); a run that moves its units
/// over all of them measures their mean instead of the one the scheduler
/// happened to pick. Does nothing when the set has no more than `width`
/// CPUs.
void pin_unit(std::size_t unit, std::size_t width);

/// Host time of one timed stretch, in ms.
struct Lap {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// Wall-clock and process CPU time elapsed since construction.
class Stopwatch {
public:
  [[nodiscard]] Lap lap() const {
    return {ms_since(wall_), process_cpu_ms() - cpu_};
  }

private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = process_cpu_ms();
};

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< Run record + span file.
  std::string serve_bin;               ///< The real hybridic_serve.
  std::string git_rev = "unknown";
};

/// One named figure with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): op counts, the metrics the
/// final line prints, and record-only figures.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  /// Workload-specific figures that go to the run record only.
  std::vector<Metric> extra;
  /// Sample count behind every percentile, by metric name.
  std::map<std::string, std::uint64_t> samples;
  /// Human-readable description of every failed check.
  std::vector<std::string> failures;
  /// Workload parameters worth recording (sizes, counts, tolerances).
  std::map<std::string, std::string> params;

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    if (failures.size() < 32) {
      failures.push_back(why);
    }
  }
};

/// Path prefix of this run's record and span files under out_dir.
[[nodiscard]] std::string run_stem(const Options& options);

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process so far, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// FNV-1a 64 over `bytes`, as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& bytes);

/// Shortest text that reads back as exactly `value`.
[[nodiscard]] std::string exact(double value);

/// Median op latency with every op counted at its class's median (the
/// weighted median of the class medians, weights = op counts; an exact
/// half split averages the two middle classes). Classes are the kinds of
/// op a workload mixes, so the figure does not hop between classes with
/// one class's noise; 0 when there are no ops.
[[nodiscard]] double class_median(
    const std::map<std::string, std::vector<double>>& op_ms);

/// The end-to-end metrics every workload reports, in BENCHMARK.json
/// order: setup_s, ops_per_s (the median of `window_ops_per_s`, the
/// throughput of each unit of work the run repeated), op_ms_p50
/// (class_median of `op_ms`, one latency per op, by op class),
/// peak_rss_mb and ok_frac. failed_frac and op_ms_p99 go to the run
/// record.
void add_end_to_end(Result& result, double setup_s,
                    const std::vector<double>& window_ops_per_s,
                    const std::map<std::string, std::vector<double>>& op_ms);

/// Workload entry points.
[[nodiscard]] Result run_sweep_analytic(const Options& options);
[[nodiscard]] Result run_paper_apps(const Options& options);
[[nodiscard]] Result run_serve_mix(const Options& options);

}  // namespace hostbench

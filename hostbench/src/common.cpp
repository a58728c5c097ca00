#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

namespace hostbench {

std::string run_stem(const Options& options) {
  return options.out_dir + "/" + options.workload + "-seed" +
         std::to_string(options.seed) + (options.trace ? "-trace" : "");
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

double cpu_clock_ms(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

}  // namespace

double process_cpu_ms() { return cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_ms() { return cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID); }

void pin_unit(std::size_t unit, std::size_t width) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          out.push_back(cpu);
        }
      }
    }
    return out;
  }();
  if (cpus.size() <= width) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < width; ++i) {
    CPU_SET(cpus[(unit + i) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB.
}

std::string digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

std::string exact(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

double class_median(
    const std::map<std::string, std::vector<double>>& op_ms) {
  std::vector<std::pair<double, double>> classes;  // (median, ops).
  double total = 0.0;
  for (const auto& [name, samples] : op_ms) {
    if (!samples.empty()) {
      classes.emplace_back(median(samples),
                           static_cast<double>(samples.size()));
      total += static_cast<double>(samples.size());
    }
  }
  std::sort(classes.begin(), classes.end());
  double below = 0.0;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    below += classes[i].second;
    if (below * 2.0 == total && i + 1 < classes.size()) {
      return (classes[i].first + classes[i + 1].first) / 2.0;
    }
    if (below * 2.0 >= total) {
      return classes[i].first;
    }
  }
  return 0.0;
}

void add_end_to_end(Result& result, double setup_s,
                    const std::vector<double>& window_ops_per_s,
                    const std::map<std::string, std::vector<double>>& op_ms) {
  const double attempted = static_cast<double>(result.attempted);
  const double failed = static_cast<double>(result.failed);
  std::vector<double> all_ms;
  for (const auto& [name, samples] : op_ms) {
    all_ms.insert(all_ms.end(), samples.begin(), samples.end());
  }
  result.metrics.push_back({"setup_s", setup_s, "s"});
  result.metrics.push_back({"ops_per_s", median(window_ops_per_s), "1/s"});
  result.samples["ops_per_s"] = window_ops_per_s.size();
  result.metrics.push_back({"op_ms_p50", class_median(op_ms), "ms"});
  result.samples["op_ms_p50"] = all_ms.size();
  result.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  result.metrics.push_back(
      {"ok_frac", attempted > 0.0 ? (attempted - failed) / attempted : 0.0,
       "frac"});
  result.extra.push_back(
      {"failed_frac", attempted > 0.0 ? failed / attempted : 0.0, "frac"});
  result.extra.push_back({"op_ms_p99", percentile(all_ms, 99.0), "ms"});
  result.samples["op_ms_p99"] = all_ms.size();
}

}  // namespace hostbench

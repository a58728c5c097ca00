// hostbench: the host-time benchmark of the hybridic tool.
//
//   hostbench --workload sweep_analytic|paper_apps|serve_mix --seed N
//             --seconds S --trace 0|1 [--out-dir D] [--serve-bin PATH]
//             [--git-rev REV]
//
// With --trace 0 the run measures end-to-end figures with no spans; with
// --trace 1 it replays the same generated inputs through the decomposed
// layer calls under spans and reports per-layer figures. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}; the line
// before it ("hostbench-record ...") and <out-dir> hold the full run
// record. hostbench/README.md documents the workloads and metrics.
#include <sys/stat.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using namespace hostbench;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "hostbench: " << message
            << "\nusage: hostbench --workload sweep_analytic|paper_apps|"
               "serve_mix --seed N --seconds S --trace 0|1 [--out-dir D] "
               "[--serve-bin PATH] [--git-rev REV]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else if (arg == "--serve-bin") {
        options.serve_bin = value;
      } else if (arg == "--git-rev") {
        options.git_rev = value;
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(options.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return options;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(metrics[i].name)
        << ": {\"value\": " << exact(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << '}';
  }
  out << '}';
  return out.str();
}

std::string record_json(const Options& options, const Result& result,
                        bool correct) {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << exact(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"fingerprint\": {\"nproc\": "
      << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(std::string{"g++ "} + __VERSION__)
      << ", \"build_type\": " << json_string(HOSTBENCH_BUILD_TYPE)
      << ", \"git_rev\": " << json_string(options.git_rev) << "}"
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed
      << ", \"metrics\": " << metrics_json(result.metrics)
      << ", \"extra\": " << metrics_json(result.extra) << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, count] : result.samples) {
    out << (first ? "" : ", ") << json_string(name) << ": " << count;
    first = false;
  }
  out << "}, \"params\": {";
  first = true;
  for (const auto& [name, value] : result.params) {
    out << (first ? "" : ", ") << json_string(name) << ": "
        << json_string(value);
    first = false;
  }
  out << "}, \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(result.failures[i]);
  }
  out << "]}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  ::mkdir(options.out_dir.c_str(), 0755);
  Result result;
  try {
    if (options.workload == "sweep_analytic") {
      result = run_sweep_analytic(options);
    } else if (options.workload == "paper_apps") {
      result = run_paper_apps(options);
    } else if (options.workload == "serve_mix") {
      result = run_serve_mix(options);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (result.attempted == 0) {
    std::cerr << "hostbench: " << options.workload << " attempted no op\n";
    return 1;
  }
  const bool correct = result.failed == 0 && result.failures.empty();
  for (const std::string& failure : result.failures) {
    std::cerr << "hostbench: check failed: " << failure << "\n";
  }

  const std::string record = record_json(options, result, correct);
  std::ofstream{run_stem(options) + ".json", std::ios::trunc} << record
                                                          << "\n";
  std::cout << "hostbench-record " << record << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json(result.metrics) << "}\n"
            << std::flush;
  return 0;
}

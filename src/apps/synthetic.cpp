#include "apps/synthetic.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hybridic::apps {

void validate_synthetic_config(const SyntheticConfig& cfg) {
  const auto probability = [](double p, const char* field) {
    require(p >= 0.0 && p <= 1.0,
            std::string{"SyntheticConfig."} + field +
                " must be in [0, 1], got " + std::to_string(p));
  };
  const auto at_most = [](std::uint64_t value, std::uint64_t bound,
                          const char* field) {
    if (value > bound) {
      throw ConfigError{std::string{"SyntheticConfig."} + field +
                        " must be <= " + std::to_string(bound) + ", got " +
                        std::to_string(value)};
    }
  };
  require(cfg.kernel_count >= 1,
          "SyntheticConfig.kernel_count must be >= 1, got 0");
  at_most(cfg.kernel_count, kMaxSyntheticKernels, "kernel_count");
  at_most(cfg.max_edge_bytes, kMaxSyntheticEdgeBytes, "max_edge_bytes");
  at_most(cfg.max_work_units, kMaxSyntheticWorkUnits, "max_work_units");
  require(cfg.min_edge_bytes >= 1,
          "SyntheticConfig.min_edge_bytes must be >= 1, got 0");
  require(cfg.min_edge_bytes <= cfg.max_edge_bytes,
          "SyntheticConfig.min_edge_bytes (" +
              std::to_string(cfg.min_edge_bytes) +
              ") must not exceed max_edge_bytes (" +
              std::to_string(cfg.max_edge_bytes) + ")");
  require(cfg.min_work_units <= cfg.max_work_units,
          "SyntheticConfig.min_work_units (" +
              std::to_string(cfg.min_work_units) +
              ") must not exceed max_work_units (" +
              std::to_string(cfg.max_work_units) + ")");
  probability(cfg.kernel_edge_probability, "kernel_edge_probability");
  probability(cfg.duplicable_probability, "duplicable_probability");
  probability(cfg.streaming_probability, "streaming_probability");
  require(cfg.board_count >= 1,
          "SyntheticConfig.board_count must be >= 1, got 0");
  require(cfg.board_topology == "chain" || cfg.board_topology == "ring" ||
              cfg.board_topology == "mesh",
          "SyntheticConfig.board_topology must be chain, ring or mesh, "
          "got '" +
              cfg.board_topology + "'");
}

SyntheticDataflow generate_synthetic_dataflow(const SyntheticConfig& cfg) {
  validate_synthetic_config(cfg);
  Rng rng{cfg.seed};
  const std::uint32_t k = cfg.kernel_count;
  SyntheticDataflow flow;
  flow.kernel_count = k;

  // Random DAG over kernels: edge i -> j for i < j.
  auto& edge_bytes = flow.edge_bytes;
  edge_bytes.assign(k, std::vector<std::uint64_t>(k, 0));
  for (std::uint32_t i = 0; i < k; ++i) {
    for (std::uint32_t j = i + 1; j < k; ++j) {
      if (rng.chance(cfg.kernel_edge_probability)) {
        edge_bytes[i][j] =
            rng.between(cfg.min_edge_bytes, cfg.max_edge_bytes);
      }
    }
  }

  // Host input bytes: kernels without kernel predecessors always get host
  // input; others get some with probability 1/2.
  auto& host_in = flow.host_input;
  host_in.assign(k, 0);
  for (std::uint32_t j = 0; j < k; ++j) {
    bool has_kernel_input = false;
    for (std::uint32_t i = 0; i < j; ++i) {
      has_kernel_input |= edge_bytes[i][j] != 0;
    }
    if (!has_kernel_input || rng.chance(0.5)) {
      host_in[j] = rng.between(cfg.min_edge_bytes, cfg.max_edge_bytes);
    }
  }

  // Output buffer of each kernel must cover its largest outgoing edge plus
  // the sink read for terminal kernels.
  auto& out_size = flow.output_size;
  auto& terminal = flow.terminal;
  out_size.assign(k, 0);
  terminal.assign(k, true);
  for (std::uint32_t i = 0; i < k; ++i) {
    for (std::uint32_t j = i + 1; j < k; ++j) {
      out_size[i] = std::max(out_size[i], edge_bytes[i][j]);
      if (edge_bytes[i][j] != 0) {
        terminal[i] = false;
      }
    }
    if (terminal[i] || rng.chance(0.3)) {
      out_size[i] = std::max(
          out_size[i], rng.between(cfg.min_edge_bytes, cfg.max_edge_bytes));
      terminal[i] = true;  // Sink will read this kernel's output.
    }
    out_size[i] = std::max<std::uint64_t>(out_size[i], 64);
  }

  flow.source_size = *std::max_element(host_in.begin(), host_in.end()) + 64;

  // One draw per payload byte of the input buffer, and of each kernel's
  // output buffer before its work draw, is part of every seed's stream
  // (campaign CSVs and fixtures pin it). Nothing reads the payload, so
  // skip those draws.
  rng.discard(flow.source_size);
  flow.work.assign(k, 0);
  for (std::uint32_t j = 0; j < k; ++j) {
    rng.discard(out_size[j]);
    flow.work[j] = rng.between(cfg.min_work_units, cfg.max_work_units);
  }

  // Calibration.
  flow.calibration.push_back(
      sys::CalibrationEntry{"source", 4.0, 0.0, 0, 0, false, false, false});
  for (std::uint32_t i = 0; i < k; ++i) {
    sys::CalibrationEntry entry;
    entry.function = "kernel" + std::to_string(i);
    entry.host_cycles_per_work_unit = 8.0 + rng.uniform() * 10.0;
    entry.kernel_cycles_per_work_unit = 0.5 + rng.uniform() * 2.0;
    entry.area_luts = static_cast<std::uint32_t>(rng.between(800, 6000));
    entry.area_regs = static_cast<std::uint32_t>(rng.between(800, 8000));
    entry.is_kernel = true;
    entry.duplicable = rng.chance(cfg.duplicable_probability);
    entry.streaming = rng.chance(cfg.streaming_probability);
    flow.calibration.push_back(entry);
  }
  flow.calibration.push_back(
      sys::CalibrationEntry{"sink", 4.0, 0.0, 0, 0, false, false, false});
  return flow;
}

prof::ProfileSnapshot declared_profile(const SyntheticDataflow& flow) {
  const std::uint32_t k = flow.kernel_count;
  // Function ids in program order: source, kernels, sink.
  const prof::FunctionId source = 0;
  const prof::FunctionId sink = k + 1;
  const auto kernel = [](std::uint32_t i) {
    return static_cast<prof::FunctionId>(i + 1);
  };

  prof::ProfileSnapshot snap;
  snap.functions.resize(k + 2);
  snap.functions[source].name = "source";
  snap.functions[source].work_units = flow.source_size / 8;
  snap.functions[source].writes = flow.source_size;
  for (std::uint32_t i = 0; i < k; ++i) {
    prof::ProfileSnapshot::Function& fn = snap.functions[kernel(i)];
    fn.name = "kernel" + std::to_string(i);
    fn.work_units = flow.work[i];
    fn.writes = flow.output_size[i];
  }
  snap.functions[sink].name = "sink";
  snap.functions[sink].work_units = kSyntheticSinkWork;

  // Pushed in (producer, consumer) order; each read happens once over
  // bytes written before it, so UMA == bytes.
  const auto transfer = [&snap](prof::FunctionId producer,
                                prof::FunctionId consumer,
                                std::uint64_t bytes) {
    snap.edges.push_back(
        prof::ProfileSnapshot::Edge{producer, consumer, bytes, bytes});
    snap.functions[consumer].reads += bytes;
  };
  for (std::uint32_t j = 0; j < k; ++j) {
    if (flow.host_input[j] != 0) {
      transfer(source, kernel(j), flow.host_input[j]);
    }
  }
  for (std::uint32_t i = 0; i < k; ++i) {
    for (std::uint32_t j = i + 1; j < k; ++j) {
      if (flow.edge_bytes[i][j] != 0) {
        transfer(kernel(i), kernel(j), flow.edge_bytes[i][j]);
      }
    }
    if (flow.terminal[i]) {
      transfer(kernel(i), sink, flow.output_size[i]);
    }
  }

  for (prof::FunctionId id = 0; id <= sink; ++id) {
    prof::ProfileSnapshot::Function& fn = snap.functions[id];
    fn.calls = 1;
    fn.unique_bytes_read = fn.reads;
    fn.unique_bytes_written = fn.writes;
    snap.call_order.push_back(id);
  }
  return snap;
}

ProfiledApp make_synthetic_app(const SyntheticConfig& cfg) {
  SyntheticDataflow flow = generate_synthetic_dataflow(cfg);
  ProfiledApp app;
  app.name = "synthetic-" + std::to_string(cfg.seed);
  app.profiler = prof::QuadProfiler::from_snapshot(declared_profile(flow));
  app.calibration = std::move(flow.calibration);
  app.verified = true;
  app.verification_note = "synthetic dataflow (no functional semantics)";
  return app;
}

}  // namespace hybridic::apps

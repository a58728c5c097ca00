// Synthetic application generator: random communication graphs + kernel
// specs for property tests and ablation sweeps that need many application
// shapes beyond the paper's four.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"

namespace hybridic::apps {

struct SyntheticConfig {
  std::uint32_t kernel_count = 6;
  std::uint32_t host_function_count = 2;
  double kernel_edge_probability = 0.35;  ///< Kernel->kernel edges.
  std::uint64_t min_edge_bytes = 1024;
  std::uint64_t max_edge_bytes = 64 * 1024;
  std::uint64_t min_work_units = 5'000;
  std::uint64_t max_work_units = 200'000;
  double duplicable_probability = 0.25;
  double streaming_probability = 0.5;
  std::uint64_t seed = 1;

  // ---- Evaluation platform, not profile identity. Profiling is
  // platform-independent, so these never enter ProfileCache::synthetic_key:
  // designs over 1 or 4 boards share one profiled app.
  std::uint32_t board_count = 1;
  std::string board_topology = "chain";  ///< chain | ring | mesh.
};

/// Upper bounds of a valid config. Every in-repo config stays far below
/// them (<= 10 kernels, <= 1 MiB edges); they exist so a hostile request
/// or reproducer is rejected before the generator allocates its k x k
/// edge table or models byte counts no board could move.
inline constexpr std::uint32_t kMaxSyntheticKernels = 256;
inline constexpr std::uint64_t kMaxSyntheticEdgeBytes = 1ULL << 40;
inline constexpr std::uint64_t kMaxSyntheticWorkUnits = 1ULL << 40;

/// Validate `config` bounds: 1 <= kernel_count <= kMaxSyntheticKernels,
/// min <= max <= kMaxSynthetic{EdgeBytes,WorkUnits} for edge bytes and
/// work units, all probabilities in [0, 1], and non-zero edge bytes
/// (kernels must be able to communicate). Throws ConfigError naming the
/// offending field.
void validate_synthetic_config(const SyntheticConfig& config);

/// The dataflow a synthetic app runs, drawn from its config's seed. The
/// functions, in program order, are source, kernel0 .. kernel{k-1}, sink;
/// each runs once. The source writes its whole input buffer, each kernel
/// reads a prefix of the input buffer (if any) and of every predecessor's
/// output buffer, then writes its whole output buffer, and the sink reads
/// every terminal kernel's whole output buffer. Acyclic by construction:
/// kernel i only feeds kernels j > i.
struct SyntheticDataflow {
  std::uint32_t kernel_count = 0;
  /// edge_bytes[i][j]: bytes kernel j reads from kernel i's output
  /// (non-zero only for i < j).
  std::vector<std::vector<std::uint64_t>> edge_bytes;
  /// Bytes each kernel reads from the source's input buffer (0: none).
  std::vector<std::uint64_t> host_input;
  /// Size of the source's input buffer.
  std::uint64_t source_size = 0;
  /// Size of each kernel's output buffer.
  std::vector<std::uint64_t> output_size;
  /// Kernels whose output the sink reads.
  std::vector<bool> terminal;
  /// Work units of each kernel; the source adds source_size / 8 and the
  /// sink kSyntheticSinkWork.
  std::vector<std::uint64_t> work;
  std::vector<sys::CalibrationEntry> calibration;
};

/// Work units the synthetic sink records.
inline constexpr std::uint64_t kSyntheticSinkWork = 256;

/// Draw the dataflow for `config`. Throws ConfigError (via
/// validate_synthetic_config) on out-of-bounds configs.
[[nodiscard]] SyntheticDataflow generate_synthetic_dataflow(
    const SyntheticConfig& config);

/// The profile a tracked run of `flow` records, written down directly.
/// Every buffer is written in full before anyone reads it and every
/// producer->consumer pair reads its bytes exactly once, so each edge's
/// UMA count equals its bytes and each function's unique read/write
/// footprint equals its read/write total.
[[nodiscard]] prof::ProfileSnapshot declared_profile(
    const SyntheticDataflow& flow);

/// Generate a synthetic profiled application: the declared profile of its
/// generated dataflow, restored into a QuadProfiler (so, as with any
/// restored profile, record_* calls on it throw). Throws ConfigError on
/// out-of-bounds configs.
[[nodiscard]] ProfiledApp make_synthetic_app(const SyntheticConfig& config);

}  // namespace hybridic::apps

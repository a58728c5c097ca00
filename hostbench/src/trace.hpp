// In-memory span tracing for the traced run. Spans are recorded from the
// benchmark's own code around each public library call, so the library
// itself is untouched. A span carries its layer, start, end, parent span
// and op id; spans of one op share the op id and run on one thread.
// Buffers are per thread and merged after the parallel work has ended.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace hostbench {

enum class Layer : std::uint8_t {
  kOp,                ///< Root span of one op (design, app, request).
  kProf,              ///< Profiling: synthetic_app / run_paper_app.
  kSched,             ///< ProfiledApp::schedule.
  kCore,              ///< make_design_input / design_interconnect.
  kTiers,             ///< TieredEvaluator::estimate.
  kOracles,           ///< One oracle check.
  kSimSoftware,       ///< run_software.
  kSimBaseline,       ///< run_baseline.
  kSimProposed,       ///< run_designed, proposed design.
  kSimNocOnly,        ///< run_designed, NoC-only design.
  kSimCrossbar,       ///< run_crossbar_system.
  kSimPipelined,      ///< run_designed_pipelined.
  kSimBaselineFrames, ///< run_baseline_frames.
  kSearch,            ///< anneal_interconnect.
  kReport,            ///< campaign_csv.
};
inline constexpr std::size_t kLayerCount = 15;

[[nodiscard]] const char* layer_name(Layer layer);

struct SpanRecord {
  Layer layer = Layer::kOp;
  std::uint32_t thread = 0;
  std::int32_t parent = -1;  ///< Index in the same thread's buffer.
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  ///< Time covered by direct children.

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
  [[nodiscard]] double self_ms() const {
    return static_cast<double>(end_ns - start_ns - child_ns) / 1e6;
  }
};

/// RAII span. The one-argument form nests under the innermost open span
/// of this thread and inherits its op id; the two-argument form opens a
/// root span for op `op`.
class Span {
public:
  explicit Span(Layer layer);
  Span(Layer layer, std::uint64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

private:
  void open(Layer layer, std::uint64_t op, bool root);
  std::size_t index_ = 0;
};

/// Move every span recorded so far out of all thread buffers, with
/// parent indices rebased into the returned vector. Call only while no
/// thread is inside a span.
[[nodiscard]] std::vector<SpanRecord> take_spans();

/// Write spans as JSON lines (name, start/end in µs, parent, op, thread).
void write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans);

/// Layer-level quantities that are counts rather than span times.
struct LayerCounters {
  double prof_cache_hit_ratio = 0.0;
  double prof_cache_resident_mb = 0.0;
  double tiers_hit_ratio = 0.0;
  std::uint64_t oracles_failed = 0;
  std::uint64_t sim_trace_events = 0;
  std::uint64_t sim_noc_bytes = 0;
  std::uint64_t sim_bus_bytes = 0;
  std::uint64_t search_proposed = 0;
  std::uint64_t search_accepted = 0;
  std::uint64_t search_rejected = 0;
  double batch_queue_wait_ms = 0.0;
  double batch_busy_frac = 0.0;
};

/// Share of the untraced end-to-end time that the per-layer self times
/// may leave unexplained before the traced run counts as not reconciled.
inline constexpr double kReconcileTolerance = 0.15;

/// Append the per-layer metrics (BENCHMARK.json order) for `passes`
/// traced passes. `untraced_ms` is the untraced end-to-end time of the
/// same passes; additive counters in `counters` are totals over them.
/// Span times are reported per pass.
void add_per_layer(Result& result, const std::vector<SpanRecord>& spans,
                   const LayerCounters& counters, double passes,
                   double untraced_ms);

}  // namespace hostbench

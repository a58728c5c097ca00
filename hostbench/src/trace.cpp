#include "trace.hpp"

#include <array>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>

namespace hostbench {
namespace {

struct ThreadBuffer {
  std::uint32_t id = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::size_t> open;  ///< Indices of open spans, innermost last.
};

/// Owns every thread's buffer, so spans outlive the pool threads that
/// recorded them.
class Registry {
public:
  static Registry& instance() {
    static Registry registry;
    return registry;
  }

  std::shared_ptr<ThreadBuffer> attach() {
    std::lock_guard<std::mutex> lock{mutex_};
    auto buffer = std::make_shared<ThreadBuffer>();
    buffer->id = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(buffer);
    return buffer;
  }

  std::vector<SpanRecord> take() {
    std::lock_guard<std::mutex> lock{mutex_};
    std::vector<SpanRecord> all;
    for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
      const auto base = static_cast<std::int32_t>(all.size());
      for (SpanRecord span : buffer->spans) {
        if (span.parent >= 0) {
          span.parent += base;
        }
        all.push_back(span);
      }
      buffer->spans.clear();
    }
    return all;
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

private:
  Registry() : epoch_(Clock::now()) {}

  std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  Clock::time_point epoch_;
};

ThreadBuffer& local_buffer() {
  thread_local const std::shared_ptr<ThreadBuffer> buffer =
      Registry::instance().attach();
  return *buffer;
}

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "op",          "prof",         "sched",         "core",
      "tiers",       "oracles",      "sim.software",  "sim.baseline",
      "sim.proposed", "sim.noc_only", "sim.crossbar", "sim.pipelined",
      "sim.baseline_frames", "search", "report"};
  return kNames[static_cast<std::size_t>(layer)];
}

Span::Span(Layer layer) {
  const ThreadBuffer& buffer = local_buffer();
  const std::uint64_t op =
      buffer.open.empty() ? 0 : buffer.spans[buffer.open.back()].op;
  open(layer, op, false);
}

Span::Span(Layer layer, std::uint64_t op) { open(layer, op, true); }

void Span::open(Layer layer, std::uint64_t op, bool root) {
  ThreadBuffer& buffer = local_buffer();
  SpanRecord span;
  span.layer = layer;
  span.thread = buffer.id;
  span.op = op;
  span.parent = root || buffer.open.empty()
                    ? -1
                    : static_cast<std::int32_t>(buffer.open.back());
  index_ = buffer.spans.size();
  buffer.open.push_back(index_);
  span.start_ns = Registry::instance().now_ns();
  buffer.spans.push_back(span);
}

Span::~Span() {
  ThreadBuffer& buffer = local_buffer();
  SpanRecord& span = buffer.spans[index_];
  span.end_ns = Registry::instance().now_ns();
  buffer.open.pop_back();
  if (span.parent >= 0) {
    buffer.spans[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
}

std::vector<SpanRecord> take_spans() { return Registry::instance().take(); }

void write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream out{path, std::ios::trunc};
  for (const SpanRecord& span : spans) {
    out << "{\"name\":\"" << layer_name(span.layer)
        << "\",\"start_us\":" << exact(static_cast<double>(span.start_ns) / 1e3)
        << ",\"end_us\":" << exact(static_cast<double>(span.end_ns) / 1e3)
        << ",\"self_us\":"
        << exact(static_cast<double>(span.end_ns - span.start_ns -
                                     span.child_ns) /
                 1e3)
        << ",\"parent\":" << span.parent << ",\"op\":" << span.op
        << ",\"thread\":" << span.thread << "}\n";
  }
}

void add_per_layer(Result& result, const std::vector<SpanRecord>& spans,
                   const LayerCounters& counters, double passes,
                   double untraced_ms) {
  struct Totals {
    double calls = 0.0;
    double self_ms = 0.0;
    std::vector<double> call_ms;
  };
  std::array<Totals, kLayerCount> layers;
  double traced_root_ms = 0.0;
  for (const SpanRecord& span : spans) {
    Totals& totals = layers[static_cast<std::size_t>(span.layer)];
    totals.calls += 1.0;
    totals.self_ms += span.self_ms();
    totals.call_ms.push_back(span.ms());
    if (span.parent < 0) {
      traced_root_ms += span.ms();
    }
  }
  const auto per_pass = [passes](double total) { return total / passes; };
  const auto at = [&layers](Layer layer) -> Totals& {
    return layers[static_cast<std::size_t>(layer)];
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::vector<Metric>& m = result.metrics;

  m.push_back({"prof.calls", per_pass(at(Layer::kProf).calls), "count"});
  m.push_back({"prof.self_ms", per_pass(at(Layer::kProf).self_ms), "ms"});
  m.push_back({"prof.ms_p50", median(at(Layer::kProf).call_ms), "ms"});
  result.samples["prof.ms_p50"] = at(Layer::kProf).call_ms.size();
  m.push_back({"prof.cache_hit_ratio", counters.prof_cache_hit_ratio,
               "ratio"});
  m.push_back({"prof.cache_resident_mb", counters.prof_cache_resident_mb,
               "MB"});
  m.push_back({"sched.self_ms", per_pass(at(Layer::kSched).self_ms), "ms"});
  m.push_back({"core.calls", per_pass(at(Layer::kCore).calls), "count"});
  m.push_back({"core.self_ms", per_pass(at(Layer::kCore).self_ms), "ms"});
  m.push_back({"core.ms_p50", median(at(Layer::kCore).call_ms), "ms"});
  result.samples["core.ms_p50"] = at(Layer::kCore).call_ms.size();
  m.push_back({"tiers.calls", per_pass(at(Layer::kTiers).calls), "count"});
  m.push_back({"tiers.self_ms", per_pass(at(Layer::kTiers).self_ms), "ms"});
  m.push_back({"tiers.hit_ratio", counters.tiers_hit_ratio, "ratio"});
  m.push_back(
      {"oracles.calls", per_pass(at(Layer::kOracles).calls), "count"});
  m.push_back(
      {"oracles.self_ms", per_pass(at(Layer::kOracles).self_ms), "ms"});
  m.push_back({"oracles.failed",
               per_pass(static_cast<double>(counters.oracles_failed)),
               "count"});
  for (const Layer layer :
       {Layer::kSimSoftware, Layer::kSimBaseline, Layer::kSimProposed,
        Layer::kSimNocOnly, Layer::kSimCrossbar, Layer::kSimPipelined,
        Layer::kSimBaselineFrames}) {
    m.push_back({std::string{layer_name(layer)} + ".self_ms",
                 per_pass(at(layer).self_ms), "ms"});
  }
  m.push_back({"sim.trace_events",
               per_pass(static_cast<double>(counters.sim_trace_events)),
               "count"});
  m.push_back({"sim.noc_bytes",
               per_pass(static_cast<double>(counters.sim_noc_bytes)),
               "bytes"});
  m.push_back({"sim.bus_bytes",
               per_pass(static_cast<double>(counters.sim_bus_bytes)),
               "bytes"});
  m.push_back({"search.calls", per_pass(at(Layer::kSearch).calls), "count"});
  m.push_back(
      {"search.self_ms", per_pass(at(Layer::kSearch).self_ms), "ms"});
  m.push_back({"search.proposed",
               per_pass(static_cast<double>(counters.search_proposed)),
               "count"});
  m.push_back({"search.accept_ratio",
               ratio(static_cast<double>(counters.search_accepted),
                     static_cast<double>(counters.search_proposed)),
               "ratio"});
  m.push_back({"search.gate_reject_ratio",
               ratio(static_cast<double>(counters.search_rejected),
                     static_cast<double>(counters.search_proposed)),
               "ratio"});
  m.push_back({"batch.queue_wait_ms", counters.batch_queue_wait_ms, "ms"});
  m.push_back({"batch.busy_frac", counters.batch_busy_frac, "frac"});
  m.push_back(
      {"report.self_ms", per_pass(at(Layer::kReport).self_ms), "ms"});

  double layer_self_ms = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (static_cast<Layer>(i) != Layer::kOp) {
      layer_self_ms += layers[i].self_ms;
    }
  }
  const double e2e_ms = per_pass(untraced_ms);
  const double unattributed_ms = e2e_ms - per_pass(layer_self_ms);
  m.push_back({"e2e_ms", e2e_ms, "ms"});
  m.push_back({"unattributed_ms", unattributed_ms, "ms"});
  m.push_back({"trace_overhead_frac",
               ratio(per_pass(traced_root_ms) - e2e_ms, e2e_ms), "frac"});
  result.params["trace_passes"] = exact(passes);
  result.params["reconcile_tolerance"] = exact(kReconcileTolerance);
  if (std::abs(unattributed_ms) > kReconcileTolerance * e2e_ms) {
    result.failures.push_back(
        "layer self times do not reconcile: unattributed " +
        exact(unattributed_ms) + " ms of " + exact(e2e_ms) + " ms per pass");
  }
}

}  // namespace hostbench

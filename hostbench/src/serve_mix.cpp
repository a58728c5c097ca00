// serve_mix: one closed-loop client sending requests through the calls
// hybridic_serve makes per request line. A request is an analytic design
// (TieredEvaluator::analyze), a cycle design (dse::run_design_case plus
// TieredEvaluator::estimate) or a search (search::anneal_interconnect).
// Shapes come from a pool of 64 sample_config shapes, weighted by Zipf
// rank, with the profile and congruence caches warmed during set-up, so
// requests read the caches the sweep fills.
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "dse/campaign.hpp"
#include "dse/case_runner.hpp"
#include "search/anneal.hpp"
#include "sys/experiment.hpp"
#include "tiers/tiered_evaluator.hpp"
#include "util/rng.hpp"

namespace hostbench {
using namespace hybridic;
namespace {

constexpr std::size_t kPoolSize = 64;
/// Campaign seed of the pool shapes. Fixed, so every seed serves the same
/// cost mix: the seed sets the order of requests (see README).
constexpr std::uint64_t kPoolSeed = 1;
/// One block of the request stream: kAnalyticPerBlock analytic designs,
/// one cycle design and one search, in a seeded order.
constexpr std::size_t kBlock = 20;
constexpr std::size_t kAnalyticPerBlock = 18;
/// Blocks per epoch: the unit a run replays, and one pass of the traced
/// run.
constexpr std::size_t kEpochBlocks = 5;

enum class Kind : std::uint8_t { kAnalytic, kCycle, kSearch };
constexpr std::size_t kKinds = 3;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kAnalytic:
      return "analytic";
    case Kind::kCycle:
      return "cycle";
    case Kind::kSearch:
      return "search";
  }
  return "?";
}

struct Request {
  Kind kind = Kind::kAnalytic;
  std::size_t shape = 0;
  std::string id;
  std::string line;  ///< The JSON line hybridic_serve would read.
};

/// One answered request: the reply line as hybridic_serve prints it,
/// plus, for cycle requests, the analytic and simulated kernel times.
struct Reply {
  std::string line;
  double analytic_kernel_s = 0.0;
  double simulated_kernel_s = 0.0;
};

std::string request_line(const apps::SyntheticConfig& config, Kind kind,
                         const std::string& id) {
  std::ostringstream out;
  out << "{\"id\":\"" << id << "\",\"op\":\""
      << (kind == Kind::kSearch ? "search" : "design") << "\",\"tier\":\""
      << (kind == Kind::kCycle ? "cycle" : "analytic")
      << "\",\"seed\":" << config.seed << ",\"kernels\":" << config.kernel_count
      << ",\"hosts\":" << config.host_function_count
      << ",\"edge_p\":" << exact(config.kernel_edge_probability)
      << ",\"dup_p\":" << exact(config.duplicable_probability)
      << ",\"stream_p\":" << exact(config.streaming_probability)
      << ",\"min_edge_bytes\":" << config.min_edge_bytes
      << ",\"max_edge_bytes\":" << config.max_edge_bytes
      << ",\"min_work\":" << config.min_work_units
      << ",\"max_work\":" << config.max_work_units << "}";
  return out.str();
}

std::string reply_head(const Request& request) {
  return "{\"id\":\"" + request.id + "\",\"ok\":true,\"tier\":\"" +
         (request.kind == Kind::kCycle ? "cycle" : "analytic") + "\"";
}

std::string analytic_body(const std::string& solution,
                          const tiers::TierEstimate& estimate) {
  std::ostringstream out;
  out << ",\"solution\":\"" << solution
      << "\",\"analytic_baseline_s\":"
      << exact(estimate.baseline_kernel_seconds)
      << ",\"analytic_designed_s\":" << exact(estimate.designed_kernel_seconds)
      << ",\"analytic_lo_s\":" << exact(estimate.designed_lower_seconds)
      << ",\"analytic_hi_s\":" << exact(estimate.designed_upper_seconds)
      << "}";
  return out.str();
}

std::string cycle_body(const core::DesignResult& proposed,
                       const sys::RunResult& baseline,
                       const sys::RunResult& designed,
                       const sys::RunResult& crossbar,
                       const sys::PipelineResult& pipelined,
                       const tiers::TierEstimate& estimate) {
  std::ostringstream out;
  out << ",\"solution\":\"" << proposed.solution_tag()
      << "\",\"baseline_s\":" << exact(baseline.total_seconds)
      << ",\"designed_s\":" << exact(designed.total_seconds)
      << ",\"crossbar_s\":" << exact(crossbar.total_seconds)
      << ",\"pipelined_makespan_s\":" << exact(pipelined.makespan_seconds)
      << ",\"analytic_designed_s\":" << exact(estimate.designed_kernel_seconds)
      << "}";
  return out.str();
}

std::string search_body(const search::SearchResult& result) {
  const search::SearchRecord record = result.record();
  std::ostringstream out;
  out << ",\"solution\":\"" << record.solution_tag
      << "\",\"searched_analytic_s\":" << exact(record.analytic_seconds)
      << ",\"alg1_analytic_s\":" << exact(record.algorithm1_analytic_seconds)
      << ",\"searched_luts\":" << record.luts
      << ",\"alg1_luts\":" << record.algorithm1_luts
      << ",\"gain\":" << exact(record.gain)
      << ",\"best_restart\":" << record.best_restart
      << ",\"proposed\":" << record.proposed
      << ",\"accepted\":" << record.accepted
      << ",\"rejected_illegal\":" << record.rejected_illegal
      << ",\"cache_hits\":" << record.cache_hits << "}";
  return out.str();
}

search::AnnealOptions anneal_options(const apps::SyntheticConfig& config,
                                     const tiers::TieredEvaluator& evaluator) {
  // hybridic_serve's defaults for a search request at tier=analytic.
  search::AnnealOptions options;
  options.seed = config.seed;
  options.restarts = 2;
  options.iterations = 60;
  options.calibration = evaluator.calibration();
  options.cycle_validate = false;
  return options;
}

/// The long-lived server state: evaluator, profile cache and pool.
class Server {
public:
  explicit Server(const std::vector<apps::SyntheticConfig>& pool)
      : pool_(pool) {
    for (const apps::SyntheticConfig& config : pool_) {
      (void)evaluator_.analyze(config, &cache_);
    }
  }

  /// Answer through the calls hybridic_serve makes.
  Reply handle(const Request& request) {
    const apps::SyntheticConfig& config = pool_[request.shape];
    tiers::TieredEvaluator& evaluator = evaluator_;
    Reply reply;
    switch (request.kind) {
      case Kind::kAnalytic: {
        const tiers::AnalyticCase analytic =
            evaluator.analyze(config, &cache_);
        reply.line = reply_head(request) +
                     analytic_body(analytic.proposed.solution_tag(),
                                   analytic.estimate);
        break;
      }
      case Kind::kCycle: {
        const dse::DesignCase c = dse::run_design_case(config, &cache_);
        const tiers::TierEstimate estimate =
            evaluator.estimate(c.schedule, c.exp.proposed_design);
        reply.line = reply_head(request) +
                     cycle_body(c.exp.proposed_design, c.exp.baseline,
                                c.exp.proposed, c.crossbar, c.pipelined,
                                estimate);
        reply.analytic_kernel_s = estimate.designed_kernel_seconds;
        reply.simulated_kernel_s = c.exp.proposed.kernel_seconds();
        break;
      }
      case Kind::kSearch: {
        const tiers::AnalyticCase analytic =
            evaluator.analyze(config, &cache_);
        const core::DesignInput input =
            sys::make_design_input(analytic.schedule, evaluator.platform());
        const search::SearchResult result = search::anneal_interconnect(
            analytic.schedule, input, evaluator.platform(),
            anneal_options(config, evaluator));
        reply.line = reply_head(request) + search_body(result);
        break;
      }
    }
    return reply;
  }

  /// handle() with each layer call made separately under a span.
  Reply handle_traced(const Request& request, std::uint64_t op,
                      LayerCounters& counters) {
    const Span root{Layer::kOp, op};
    const apps::SyntheticConfig& config = pool_[request.shape];
    tiers::TieredEvaluator& evaluator = evaluator_;
    const sys::PlatformConfig& platform = evaluator.platform();
    std::shared_ptr<const apps::ProfiledApp> app;
    {
      const Span span{Layer::kProf};
      app = cache_.synthetic_app(config);
    }
    sys::AppSchedule schedule;
    {
      const Span span{Layer::kSched};
      schedule = app->schedule();
    }
    Reply reply;
    if (request.kind == Kind::kCycle) {
      // dse::run_design_case, then the estimate hybridic_serve attaches.
      dse::DesignCase c;
      {
        const Span span{Layer::kCore};
        c.theta_seconds_per_byte =
            sys::make_design_input(schedule, platform).theta.seconds_per_byte;
      }
      c.exp = traced_experiment(schedule, platform, counters);
      {
        const Span span{Layer::kSimCrossbar};
        c.crossbar = sys::run_crossbar_system(schedule, platform);
      }
      {
        const Span span{Layer::kSimPipelined};
        c.pipelined = sys::run_designed_pipelined(
            schedule, c.exp.proposed_design, platform, c.frame_count);
      }
      {
        const Span span{Layer::kSimBaselineFrames};
        c.baseline_frames =
            sys::run_baseline_frames(schedule, platform, c.frame_count);
      }
      tiers::TierEstimate estimate;
      {
        const Span span{Layer::kTiers};
        estimate = evaluator.estimate(schedule, c.exp.proposed_design);
      }
      count_run(c.crossbar, counters);
      reply.line = reply_head(request) +
                   cycle_body(c.exp.proposed_design, c.exp.baseline,
                              c.exp.proposed, c.crossbar, c.pipelined,
                              estimate);
      reply.analytic_kernel_s = estimate.designed_kernel_seconds;
      reply.simulated_kernel_s = c.exp.proposed.kernel_seconds();
      return reply;
    }

    // TieredEvaluator::analyze, call by call.
    const auto [proposed, noc_only] =
        traced_designs(analytic_design_input(schedule, evaluator));
    tiers::TierEstimate estimate;
    {
      const Span span{Layer::kTiers};
      estimate = evaluator.estimate(schedule, proposed);
    }
    if (request.kind == Kind::kAnalytic) {
      reply.line = reply_head(request) +
                   analytic_body(proposed.solution_tag(), estimate);
      return reply;
    }
    core::DesignInput search_input;
    {
      const Span span{Layer::kCore};
      search_input = sys::make_design_input(schedule, platform);
    }
    search::SearchResult result;
    {
      const Span span{Layer::kSearch};
      result = search::anneal_interconnect(schedule, search_input, platform,
                                           anneal_options(config, evaluator));
    }
    counters.search_proposed += result.stats.proposed;
    counters.search_accepted += result.stats.accepted;
    counters.search_rejected += result.stats.rejected_illegal;
    reply.line = reply_head(request) + search_body(result);
    return reply;
  }

  [[nodiscard]] const apps::ProfileCache& cache() const { return cache_; }
  [[nodiscard]] const tiers::TieredEvaluator& evaluator() const {
    return evaluator_;
  }

private:
  const std::vector<apps::SyntheticConfig>& pool_;
  tiers::TieredEvaluator evaluator_;
  apps::ProfileCache cache_;
};

/// One epoch of the request stream, which a run replays until its time
/// is up. Each block of kBlock requests holds kAnalyticPerBlock analytic
/// designs, one cycle design and one search, in an order the seed sets.
/// Within each kind, shapes follow Zipf(1) weights over the pool ranks by
/// a largest-deficit schedule, so an epoch's mix of shapes is fixed and
/// as close to the weights as its length allows.
std::vector<Request> make_epoch(const std::vector<apps::SyntheticConfig>& pool,
                                std::uint64_t seed) {
  std::vector<double> weights;
  double total = 0.0;
  for (std::size_t rank = 1; rank <= pool.size(); ++rank) {
    weights.push_back(1.0 / static_cast<double>(rank));
    total += weights.back();
  }
  std::array<std::vector<std::uint64_t>, kKinds> counts;
  counts.fill(std::vector<std::uint64_t>(pool.size(), 0));
  std::array<std::uint64_t, kKinds> served{};
  const auto next_shape = [&](Kind kind) {
    auto& count = counts[static_cast<std::size_t>(kind)];
    std::uint64_t& n = served[static_cast<std::size_t>(kind)];
    std::size_t best = 0;
    double best_deficit = -1e300;
    for (std::size_t k = 0; k < count.size(); ++k) {
      const double deficit = static_cast<double>(n + 1) * weights[k] / total -
                             static_cast<double>(count[k]);
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = k;
      }
    }
    ++count[best];
    ++n;
    return best;
  };

  Rng rng{seed};
  std::vector<Request> epoch;
  for (std::size_t block = 0; block < kEpochBlocks; ++block) {
    std::vector<Kind> kinds(kAnalyticPerBlock, Kind::kAnalytic);
    kinds.push_back(Kind::kCycle);
    kinds.push_back(Kind::kSearch);
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.below(i)]);
    }
    for (const Kind kind : kinds) {
      Request request;
      request.kind = kind;
      request.shape = next_shape(kind);
      request.id = "s" + std::to_string(request.shape) + "-" + kind_name(kind);
      request.line = request_line(pool[request.shape], kind, request.id);
      epoch.push_back(std::move(request));
    }
  }
  return epoch;
}

/// Tracks every reply per request line: the same line must always get
/// the same reply, and each line counts the ops it answered.
class ReplyBook {
public:
  void record(const Request& request, const Reply& reply, Result& result) {
    result.attempted += 1;
    auto [it, inserted] = entries_.try_emplace(request.line);
    Entry& entry = it->second;
    if (inserted) {
      entry.reply = reply.line;
      order_.push_back(request.line);
    } else if (entry.reply != reply.line) {
      result.fail(1, "request " + request.id + " answered differently: " +
                         reply.line + " vs " + entry.reply);
    }
    entry.ops += 1;
  }

  /// Send every distinct line once to the real hybridic_serve and fail
  /// the ops of each line whose reply differs.
  void check_against_server(const Options& options, Result& result) const {
    const std::string requests = run_stem(options) + "-requests.jsonl";
    {
      std::ofstream out{requests, std::ios::trunc};
      for (const std::string& line : order_) {
        out << line << "\n";
      }
    }
    std::vector<std::string> answers;
    const std::string command =
        "'" + options.serve_bin + "' < '" + requests + "' 2>/dev/null";
    if (FILE* pipe = ::popen(command.c_str(), "r")) {
      std::string line;
      char buffer[4096];
      while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
        line += buffer;
        if (!line.empty() && line.back() == '\n') {
          line.pop_back();
          answers.push_back(line);
          line.clear();
        }
      }
      ::pclose(pipe);
    }
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const Entry& entry = entries_.at(order_[i]);
      if (i >= answers.size() || answers[i] != entry.reply) {
        result.fail(entry.ops,
                    "hybridic_serve answers " +
                        (i < answers.size() ? answers[i] : "nothing") +
                        " to " + order_[i] + ", benchmark got " +
                        entry.reply);
      }
    }
    result.params["serve_check"] =
        std::to_string(order_.size()) + " lines against " + options.serve_bin;
  }

private:
  struct Entry {
    std::string reply;
    std::uint64_t ops = 0;
  };
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

}  // namespace

Result run_serve_mix(const Options& options) {
  Result result;
  result.params["pool_size"] = std::to_string(kPoolSize);
  result.params["pool_campaign_seed"] = std::to_string(kPoolSeed);
  result.params["block"] = std::to_string(kBlock) + " requests: " +
                           std::to_string(kAnalyticPerBlock) +
                           " analytic, 1 cycle, 1 search";
  result.params["epoch_blocks"] = std::to_string(kEpochBlocks);

  // Set-up: the pool, a server warmed on every pool shape, and the
  // seeded epoch of requests. The untraced run sets up afresh before
  // every epoch, so setup_s, the median, samples the same stretch of time
  // as ops_per_s. Its figures are process CPU time, which for this
  // one-thread client is the wall time without hypervisor steal (README
  // §Steadiness).
  std::vector<apps::SyntheticConfig> pool;
  std::unique_ptr<Server> server;
  std::vector<Request> epoch;
  std::vector<double> setup_seconds;
  const auto set_up = [&] {
    server.reset();
    const Stopwatch setup;
    pool.clear();
    const dse::SweepSpace space;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool.push_back(dse::sample_config(space, kPoolSeed, i));
    }
    server = std::make_unique<Server>(pool);
    epoch = make_epoch(pool, options.seed);
    setup_seconds.push_back(setup.lap().cpu_ms / 1000.0);
  };

  ReplyBook book;
  const Clock::time_point start = Clock::now();
  if (!options.trace) {
    std::map<std::string, std::vector<double>> kind_ms;
    std::vector<double> errors;
    std::vector<double> per_second;
    std::size_t unit = 0;
    do {
      pin_unit(unit++, 1);
      set_up();
      double epoch_ms = 0.0;
      for (const Request& request : epoch) {
        const Stopwatch op;
        const Reply reply = server->handle(request);
        const double ms = op.lap().cpu_ms;
        epoch_ms += ms;
        kind_ms[kind_name(request.kind)].push_back(ms);
        book.record(request, reply, result);
        if (request.kind == Kind::kCycle) {
          errors.push_back(
              std::abs(reply.analytic_kernel_s - reply.simulated_kernel_s) /
              reply.simulated_kernel_s);
        }
      }
      per_second.push_back(static_cast<double>(epoch.size()) * 1000.0 /
                           epoch_ms);
    } while (ms_since(start) < options.seconds * 1000.0);
    add_end_to_end(result, median(setup_seconds), per_second, kind_ms);
    const auto add = [&result](const std::string& name,
                               const std::vector<double>& samples, double p,
                               const char* unit) {
      result.extra.push_back({name, percentile(samples, p), unit});
      result.samples[name] = samples.size();
    };
    const auto& analytic = kind_ms["analytic"];
    const auto& cycle = kind_ms["cycle"];
    const auto& searches = kind_ms["search"];
    add("analytic_ms_p50", analytic, 50.0, "ms");
    add("analytic_ms_p99", analytic, 99.0, "ms");
    add("cycle_ms_p50", cycle, 50.0, "ms");
    add("cycle_ms_p90", cycle, 90.0, "ms");
    add("search_ms_p50", searches, 50.0, "ms");
    add("search_ms_p90", searches, 90.0, "ms");
    add("analytic_err_p50", errors, 50.0, "frac");
  } else {
    set_up();
    const std::vector<Request>& requests = epoch;
    LayerCounters counters;
    double untraced_ms = 0.0;
    double passes = 0.0;
    std::uint64_t op = 0;
    const apps::ProfileCacheStats cache_before = server->cache().stats();
    const std::uint64_t tier_hits_before = server->evaluator().cache().hits();
    const std::uint64_t tier_misses_before =
        server->evaluator().cache().misses();
    do {
      for (const Request& request : requests) {
        const Clock::time_point t0 = Clock::now();
        const Reply untraced = server->handle(request);
        untraced_ms += ms_since(t0);
        book.record(request, untraced, result);
        const Reply traced = server->handle_traced(request, op++, counters);
        book.record(request, traced, result);
        if (traced.line != untraced.line) {
          result.fail(1, "traced reply to " + request.id +
                             " differs from the untraced one");
        }
      }
      passes += 1.0;
    } while (ms_since(start) < options.seconds * 1000.0);
    // Cache figures cover the timed passes only, not the set-up warm-up.
    const apps::ProfileCacheStats cache_after = server->cache().stats();
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits);
    const double misses =
        static_cast<double>(cache_after.misses - cache_before.misses);
    counters.prof_cache_hit_ratio =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    counters.prof_cache_resident_mb =
        static_cast<double>(cache_after.resident_bytes) / 1e6;
    const double tier_hits = static_cast<double>(
        server->evaluator().cache().hits() - tier_hits_before);
    const double tier_misses = static_cast<double>(
        server->evaluator().cache().misses() - tier_misses_before);
    counters.tiers_hit_ratio = tier_hits + tier_misses > 0.0
                                   ? tier_hits / (tier_hits + tier_misses)
                                   : 0.0;
    const std::vector<SpanRecord> spans = take_spans();
    write_spans(run_stem(options) + "-spans.jsonl", spans);
    add_per_layer(result, spans, counters, passes, untraced_ms);
  }

  // Untimed: the real server must answer every distinct line the same.
  book.check_against_server(options, result);
  return result;
}

}  // namespace hostbench

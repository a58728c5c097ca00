// hybridic_serve: a supervised JSON-lines front end over the pipeline.
//
// Reads one flat JSON object per stdin line, runs the full flow for it —
// synthetic config -> QUAD profiling -> Algorithm 1 -> the requested
// evaluation tier — and writes one JSON object per stdout line. The
// process is long-lived: the profile cache and the tiered evaluator stay
// warm across requests, so repeated shapes are served from memory.
//
// Each line is one strict JSON object (util/text.hpp: no duplicate keys,
// JSON number grammar, CR/LF/space/tab whitespace). Request fields (all
// optional; unknown keys and ill-typed values are usage errors):
//   id               echoed in every reply to a line that parses
//   op               "design" (default) | "search" | "stats"
//   seed, kernels, hosts, boards          unsigned integers (digits only)
//   edge_p, dup_p, stream_p               probabilities in [0, 1]
//   min_edge_bytes, max_edge_bytes        unsigned integers
//   min_work, max_work                    unsigned integers
//   board_topology   chain | ring | mesh
//   tier             analytic (default) | cycle
//   restarts, iterations   annealer knobs ("search" requests only)
//   timeout_s        per-request wall-clock watchdog (0 = none)
//
// op "search" runs the seeded annealer (src/search) on the configured
// app and answers with the searched-vs-Algorithm-1 record; with
// tier=cycle the final incumbent is also simulated cycle-accurately and
// checked against its analytic band.
//
// Responses: {"id":...,"ok":true,...} on success, or
// {"id":...,"ok":false,"error":E,"exit_code":N,"message":M} where the
// error taxonomy E/N mirrors the CLI exit-code scheme ("internal"/1,
// "usage"/2, "config"/3, "timeout"/4; the server holds no store, so the
// CLI's "store"/5 never arises). A request whose watchdog expires is
// answered with the timeout taxonomy, counted as quarantined, and the
// wedged attempt is abandoned — the server keeps serving.
//
// The profile cache is bounded by the campaign defaults
// (dse::CampaignOptions::profile_cache_max_*), so a long-lived server
// holds a fixed number of profiles however many shapes it sees.
//
// Shutdown: EOF on stdin, SIGINT or SIGTERM. The server finishes the
// in-flight request, prints its counters to stderr and exits 0.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "apps/profile_cache.hpp"
#include "apps/synthetic.hpp"
#include "dse/campaign.hpp"
#include "dse/case_runner.hpp"
#include "search/anneal.hpp"
#include "store/store.hpp"
#include "sys/batch_runner.hpp"
#include "sys/experiment.hpp"
#include "tiers/tiered_evaluator.hpp"
#include "util/error.hpp"
#include "util/text.hpp"

namespace {

using namespace hybridic;
using text::decimal17;

std::atomic<bool> g_stop{false};

void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: a signal must interrupt the blocking stdin read so the
  // serve loop can notice the stop and shut down in order.
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

// ---------------------------------------------------------------------------
// Error taxonomy: the structured mirror of the CLI exit-code scheme, so a
// scripted caller can switch on one field either way.

struct Taxonomy {
  const char* error;
  int exit_code;
};

constexpr Taxonomy kInternal{"internal", 1};
constexpr Taxonomy kUsage{"usage", 2};
constexpr Taxonomy kConfig{"config", 3};
constexpr Taxonomy kTimeout{"timeout", 4};

/// One finished request: the response line plus how to count it.
struct ServeReply {
  std::string json;       ///< Body after the echoed id ("ok":...}).
  bool ok = false;
};

std::string error_body(const Taxonomy& taxonomy, const std::string& message) {
  std::ostringstream out;
  out << "\"ok\":false,\"error\":\"" << taxonomy.error
      << "\",\"exit_code\":" << taxonomy.exit_code << ",\"message\":\""
      << text::json_escape(message) << "\"}";
  return out.str();
}

/// Run one request body (which returns its success reply) and map
/// whatever it throws onto the taxonomy.
template <typename Body>
ServeReply answer(const Body& body) {
  ServeReply reply;
  try {
    reply.json = body();
    reply.ok = true;
  } catch (const SimTimeoutError& e) {
    reply.json = error_body(kTimeout, e.what());
  } catch (const ConfigError& e) {
    reply.json = error_body(kConfig, e.what());
  } catch (const std::exception& e) {
    reply.json = error_body(kInternal, e.what());
  }
  return reply;
}

struct Counters {
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  std::uint64_t quarantined = 0;
};

// ---------------------------------------------------------------------------
// Request decoding.

struct Request {
  apps::SyntheticConfig config;
  tiers::TierMode tier = tiers::TierMode::kAnalytic;
  double timeout_seconds = 0.0;
  std::string id;
  bool stats = false;
  bool search = false;
  std::uint32_t search_restarts = 2;
  std::uint32_t search_iterations = 60;
};

/// Decode one parsed object into a Request; returns false with a usage
/// message on any unknown key or ill-typed value. The id is decoded first,
/// so every usage reply echoes it.
bool decode_request(const text::JsonObject& fields, Request& request,
                    std::string& error) {
  const auto id = fields.find("id");
  if (id != fields.end() && !id->second.as_string(request.id)) {
    error = "bad value for key \"id\"";
    return false;
  }
  for (const auto& [key, value] : fields) {
    bool ok = true;
    std::string word;
    if (key == "id") {
      continue;
    } else if (key == "op") {
      ok = value.as_string(word) &&
           (word == "design" || word == "search" || word == "stats");
      request.stats = word == "stats";
      request.search = word == "search";
    } else if (key == "restarts") {
      ok = value.as_u32(request.search_restarts) &&
           request.search_restarts > 0;
    } else if (key == "iterations") {
      ok = value.as_u32(request.search_iterations) &&
           request.search_iterations > 0;
    } else if (key == "seed") {
      ok = value.as_u64(request.config.seed);
    } else if (key == "kernels") {
      ok = value.as_u32(request.config.kernel_count);
    } else if (key == "hosts") {
      ok = value.as_u32(request.config.host_function_count);
    } else if (key == "boards") {
      ok = value.as_u32(request.config.board_count);
    } else if (key == "edge_p") {
      ok = value.as_f64(request.config.kernel_edge_probability);
    } else if (key == "dup_p") {
      ok = value.as_f64(request.config.duplicable_probability);
    } else if (key == "stream_p") {
      ok = value.as_f64(request.config.streaming_probability);
    } else if (key == "min_edge_bytes") {
      ok = value.as_u64(request.config.min_edge_bytes);
    } else if (key == "max_edge_bytes") {
      ok = value.as_u64(request.config.max_edge_bytes);
    } else if (key == "min_work") {
      ok = value.as_u64(request.config.min_work_units);
    } else if (key == "max_work") {
      ok = value.as_u64(request.config.max_work_units);
    } else if (key == "board_topology") {
      ok = value.as_string(word) &&
           (word == "chain" || word == "ring" || word == "mesh");
      request.config.board_topology = word;
    } else if (key == "tier") {
      const auto mode = value.as_string(word)
                            ? tiers::parse_tier_mode(word)
                            : std::nullopt;
      // Auto is a campaign concept (batch-ranked escalation); a single
      // request picks its tier explicitly.
      ok = mode.has_value() && *mode != tiers::TierMode::kAuto;
      if (ok) {
        request.tier = *mode;
      }
    } else if (key == "timeout_s") {
      ok = value.as_f64(request.timeout_seconds) &&
           request.timeout_seconds >= 0.0;
    } else {
      error = "unknown key \"" + key + "\"";
      return false;
    }
    if (!ok) {
      error = "bad value for key \"" + key + "\"";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// The design job itself. Runs on a watchdog thread when the request set
// timeout_s, so it only touches state that outlives the request: the
// evaluator and cache in ServeState.

/// Everything a request body touches, heap-held behind one shared_ptr: an
/// expired request's abandoned thread may still be running when main()
/// returns, so each body holds its own reference.
struct ServeState {
  tiers::TieredEvaluator evaluator;
  apps::ProfileCache cache;
};

std::string run_design(const Request& request,
                       tiers::TieredEvaluator& evaluator,
                       apps::ProfileCache& cache) {
  std::ostringstream out;
  out << "\"ok\":true,\"tier\":\"" << tiers::to_string(request.tier) << "\"";
  if (request.tier == tiers::TierMode::kCycle) {
    const dse::DesignCase c = dse::run_design_case(request.config, &cache);
    const tiers::TierEstimate estimate =
        evaluator.estimate(c.schedule, c.exp.proposed_design);
    out << ",\"solution\":\""
        << text::json_escape(c.exp.proposed_design.solution_tag())
        << "\",\"baseline_s\":" << decimal17(c.exp.baseline.total_seconds)
        << ",\"designed_s\":" << decimal17(c.exp.proposed.total_seconds)
        << ",\"crossbar_s\":" << decimal17(c.crossbar.total_seconds)
        << ",\"pipelined_makespan_s\":"
        << decimal17(c.pipelined.makespan_seconds)
        << ",\"analytic_designed_s\":"
        << decimal17(estimate.designed_kernel_seconds);
  } else {
    tiers::AnalyticCase analytic = evaluator.analyze(request.config, &cache);
    out << ",\"solution\":\""
        << text::json_escape(analytic.proposed.solution_tag())
        << "\",\"analytic_baseline_s\":"
        << decimal17(analytic.estimate.baseline_kernel_seconds)
        << ",\"analytic_designed_s\":"
        << decimal17(analytic.estimate.designed_kernel_seconds)
        << ",\"analytic_lo_s\":"
        << decimal17(analytic.estimate.designed_lower_seconds)
        << ",\"analytic_hi_s\":"
        << decimal17(analytic.estimate.designed_upper_seconds);
  }
  out << "}";
  return out.str();
}

// The search job: seeded annealing over the configured app, always
// seeded by (and compared against) Algorithm 1. tier=cycle adds the
// end-of-run cycle-accurate check of the incumbent.
std::string run_search(const Request& request,
                       tiers::TieredEvaluator& evaluator,
                       apps::ProfileCache& cache) {
  const tiers::AnalyticCase analytic =
      evaluator.analyze(request.config, &cache);
  const core::DesignInput input =
      sys::make_design_input(analytic.schedule, evaluator.platform());
  search::AnnealOptions sopt;
  sopt.seed = request.config.seed;
  sopt.restarts = request.search_restarts;
  sopt.iterations = request.search_iterations;
  sopt.calibration = evaluator.calibration();
  sopt.cycle_validate = request.tier == tiers::TierMode::kCycle;
  const search::SearchResult result = search::anneal_interconnect(
      analytic.schedule, input, evaluator.platform(), sopt);
  const search::SearchRecord record = result.record();
  std::ostringstream out;
  out << "\"ok\":true,\"tier\":\"" << tiers::to_string(request.tier)
      << "\",\"solution\":\"" << text::json_escape(record.solution_tag)
      << "\",\"searched_analytic_s\":" << decimal17(record.analytic_seconds)
      << ",\"alg1_analytic_s\":"
      << decimal17(record.algorithm1_analytic_seconds)
      << ",\"searched_luts\":" << record.luts
      << ",\"alg1_luts\":" << record.algorithm1_luts
      << ",\"gain\":" << decimal17(record.gain)
      << ",\"best_restart\":" << record.best_restart
      << ",\"proposed\":" << record.proposed
      << ",\"accepted\":" << record.accepted
      << ",\"rejected_illegal\":" << record.rejected_illegal
      << ",\"cache_hits\":" << record.cache_hits;
  if (result.cycle.has_value()) {
    out << ",\"cycle_s\":" << decimal17(result.cycle->measured_kernel_seconds)
        << ",\"within_band\":"
        << (result.cycle->within_band ? "true" : "false");
  }
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::cout << "hybridic_serve engine revision "
                << store::kEngineRevision << "\n";
      return 0;
    }
    if (arg == "--help") {
      std::cout
          << "usage: " << argv[0] << "\n"
          << "\n"
          << "JSON-lines server: one flat JSON request per stdin line,\n"
          << "one JSON response per stdout line. See the header comment\n"
          << "of examples/hybridic_serve.cpp (and docs/MODEL.md section\n"
          << "17) for\n"
          << "the request schema and the error taxonomy. Exits 0 on EOF\n"
          << "or SIGINT/SIGTERM after finishing the in-flight request.\n";
      return 0;
    }
    std::cerr << "unknown flag '" << arg << "'\n";
    return 2;
  }
  install_signal_handlers();

  const auto state = std::make_shared<ServeState>();
  const dse::CampaignOptions defaults;
  state->cache.set_capacity(
      static_cast<std::size_t>(defaults.profile_cache_max_entries),
      defaults.profile_cache_max_bytes);
  Counters counters;

  std::string line;
  while (!g_stop.load(std::memory_order_relaxed) &&
         std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;  // Blank lines are keep-alives, not requests.
    }
    ++counters.requests;

    text::FlatJson doc;
    Request request;
    std::string parse_error;
    if (!text::parse_flat_json(line, doc, parse_error) ||
        !decode_request(doc.fields, request, parse_error)) {
      ++counters.failed;
      std::cout << "{\"id\":\"" << text::json_escape(request.id) << "\","
                << error_body(kUsage, parse_error) << "\n"
                << std::flush;
      continue;
    }

    if (request.stats) {
      ++counters.served;
      std::cout << "{\"id\":\"" << text::json_escape(request.id)
                << "\",\"ok\":true,\"requests\":" << counters.requests
                << ",\"served\":" << counters.served
                << ",\"failed\":" << counters.failed
                << ",\"quarantined\":" << counters.quarantined << "}\n"
                << std::flush;
      continue;
    }

    // The request body under its watchdog. The attempt thread owns copies
    // of the closure; an expired request is abandoned (and counted as
    // quarantined), never joined.
    const auto body = [state, request](sys::JobContext&) -> ServeReply {
      return answer([&] {
        return request.search
                   ? run_search(request, state->evaluator, state->cache)
                   : run_design(request, state->evaluator, state->cache);
      });
    };
    const sys::SupervisedResult<ServeReply> outcome =
        sys::detail::attempt<ServeReply>(
            body,
            sys::JobContext{request.id, sys::job_seed(request.id),
                            Rng{sys::job_seed(request.id)}, 0},
            request.timeout_seconds);

    std::string tail;
    switch (outcome.status) {
      case sys::JobStatus::kOk:
        tail = outcome.value->json;
        if (outcome.value->ok) {
          ++counters.served;
        } else {
          ++counters.failed;
        }
        break;
      case sys::JobStatus::kTimeout:
        ++counters.quarantined;
        tail = error_body(kTimeout, outcome.error);
        break;
      default:
        ++counters.failed;
        tail = error_body(kInternal, outcome.error);
        break;
    }
    std::cout << "{\"id\":\"" << text::json_escape(request.id) << "\"," << tail
              << "\n"
              << std::flush;
  }

  std::cerr << "hybridic_serve: "
            << (g_stop.load(std::memory_order_relaxed) ? "signal" : "eof")
            << " shutdown; requests=" << counters.requests
            << " served=" << counters.served << " failed=" << counters.failed
            << " quarantined=" << counters.quarantined << "\n";
  return 0;
}

// sweep_analytic: the many-design sweep. One op is one design of an
// analytic-tier dse::run_campaign over dse::sample_config of the default
// SweepSpace, 2 workers, a fresh evaluator and profile cache per campaign,
// no store or journal. Every design is new and cold, so profiling and
// Algorithm 1 do the work and the cycle simulator does none.
#include <algorithm>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "common.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "dse/campaign.hpp"
#include "dse/oracles.hpp"
#include "sys/batch_runner.hpp"

namespace hostbench {
using namespace hybridic;
namespace {

constexpr std::uint64_t kDesigns = 1000;
constexpr std::size_t kWorkers = 2;
/// The traced run works in shards of the campaign (index % kTraceShards).
constexpr std::uint64_t kTraceShards = 10;
constexpr int kSetupReps = 9;

dse::CampaignOptions campaign_options(std::uint64_t seed,
                                      std::size_t threads) {
  dse::CampaignOptions options;
  options.count = kDesigns;
  options.campaign_seed = seed;
  options.threads = threads;
  options.tier = tiers::TierMode::kAnalytic;
  return options;
}

/// Start times the campaign's job hook reports, per thread, on the wall
/// clock and on the thread's CPU clock: a job ends where the next job on
/// its thread starts, the last one where the campaign returns. A worker's
/// CPU clock cannot be read once the campaign has returned, so the last
/// job of each worker has a wall time only.
class JobClock {
public:
  void started() {
    const Start start{std::this_thread::get_id(), Clock::now(),
                      thread_cpu_ms()};
    std::lock_guard<std::mutex> lock{mutex_};
    starts_.push_back(start);
  }

  /// Wall-clock ms of every job, and CPU ms of every job but the last on
  /// each thread.
  [[nodiscard]] std::pair<std::vector<double>, std::vector<double>>
  durations_ms(Clock::time_point end) {
    std::lock_guard<std::mutex> lock{mutex_};
    std::stable_sort(starts_.begin(), starts_.end(),
                     [](const Start& a, const Start& b) {
                       return a.thread < b.thread;
                     });
    std::vector<double> wall;
    std::vector<double> cpu;
    wall.reserve(starts_.size());
    cpu.reserve(starts_.size());
    for (std::size_t i = 0; i < starts_.size(); ++i) {
      const bool last = i + 1 == starts_.size() ||
                        starts_[i + 1].thread != starts_[i].thread;
      if (last) {
        wall.push_back(ms_between(starts_[i].wall, end));
      } else {
        wall.push_back(ms_between(starts_[i].wall, starts_[i + 1].wall));
        cpu.push_back(starts_[i + 1].cpu_ms - starts_[i].cpu_ms);
      }
    }
    return {std::move(wall), std::move(cpu)};
  }

private:
  struct Start {
    std::thread::id thread;
    Clock::time_point wall;
    double cpu_ms = 0.0;
  };
  std::mutex mutex_;
  std::vector<Start> starts_;
};

struct CampaignRun {
  dse::CampaignResult result;
  std::string digest;
  double ms = 0.0;      ///< run_campaign + campaign_csv.
  double cpu_ms = 0.0;  ///< The same, in process CPU time (all threads).
  double csv_ms = 0.0;  ///< campaign_csv alone.
  std::vector<double> design_ms;      ///< Wall-clock, every design.
  std::vector<double> design_cpu_ms;  ///< See JobClock.
};

CampaignRun run_campaign_once(const dse::CampaignOptions& base) {
  JobClock clock;
  dse::CampaignOptions options = base;
  options.job_started_hook = [&clock](std::uint64_t) { clock.started(); };
  CampaignRun run;
  const Stopwatch campaign;
  run.result = dse::run_campaign(options);
  const Clock::time_point t1 = Clock::now();
  const std::string csv = dse::campaign_csv(run.result);
  const Lap lap = campaign.lap();
  run.ms = lap.wall_ms;
  run.cpu_ms = lap.cpu_ms;
  run.csv_ms = ms_since(t1);
  std::tie(run.design_ms, run.design_cpu_ms) = clock.durations_ms(t1);
  run.digest = digest(csv);
  return run;
}

/// Output checks on the rows of one campaign: every design ran and
/// passed every sim-free oracle.
void check_rows(const dse::CampaignResult& campaign, Result& result) {
  result.attempted += campaign.cases.size();
  for (const dse::CaseOutcome& outcome : campaign.cases) {
    if (!outcome.ran() || !outcome.all_pass()) {
      result.fail(1, "design " + std::to_string(outcome.index) +
                         " failed: " + outcome.error);
    }
  }
}

/// What the traced replay of one design produced.
struct Replayed {
  std::string solution_tag;
  double designed_kernel_seconds = 0.0;
  std::vector<bool> verdicts;
  Clock::time_point start;
  Clock::time_point end;
};

/// The analytic-tier job body (profile, schedule, Algorithm 1, estimate,
/// sim-free oracles) with each layer call under a span.
Replayed replay_design(const apps::SyntheticConfig& config,
                       std::uint64_t index, apps::ProfileCache& cache,
                       tiers::TieredEvaluator& evaluator,
                       const std::vector<dse::Oracle>& oracles) {
  Replayed out;
  out.start = Clock::now();
  const Span op{Layer::kOp, index};
  dse::DesignCase c;
  c.config = config;
  {
    const Span span{Layer::kProf};
    c.app = cache.synthetic_app(c.config);
  }
  {
    const Span span{Layer::kSched};
    c.schedule = c.app->schedule();
  }
  std::tie(c.exp.proposed_design, c.exp.noc_only_design) =
      traced_designs(analytic_design_input(c.schedule, evaluator));
  c.theta_seconds_per_byte = evaluator.theta_seconds_per_byte();
  {
    const Span span{Layer::kTiers};
    out.designed_kernel_seconds =
        evaluator.estimate(c.schedule, c.exp.proposed_design)
            .designed_kernel_seconds;
  }
  out.solution_tag = c.exp.proposed_design.solution_tag();
  for (const dse::Oracle& oracle : oracles) {
    const Span span{Layer::kOracles};
    out.verdicts.push_back(oracle.check(c).pass);
  }
  out.end = Clock::now();
  return out;
}

/// Cache lookups of the traced replays, summed over passes.
struct CacheTally {
  double profile_hits = 0.0;
  double profile_lookups = 0.0;
  double estimate_hits = 0.0;
  double estimate_lookups = 0.0;
};

/// Replay the designs of one campaign's rows through the decomposed layer
/// calls under spans, on a BatchRunner with the campaign's worker count,
/// and check that each design reproduces its row.
void replay_traced(const std::vector<apps::SyntheticConfig>& configs,
                   const dse::CampaignResult& campaign, Result& result,
                   LayerCounters& counters, CacheTally& tally) {
  dse::CampaignOptions defaults = campaign_options(0, kWorkers);
  apps::ProfileCache cache;
  cache.set_capacity(static_cast<std::size_t>(defaults.profile_cache_max_entries),
                     defaults.profile_cache_max_bytes);
  tiers::TieredEvaluator evaluator;
  std::vector<dse::Oracle> oracles;
  for (dse::Oracle& oracle : dse::oracle_library(defaults.bounds, false)) {
    if (!oracle.needs_cycle) {
      oracles.push_back(std::move(oracle));
    }
  }
  std::vector<sys::BatchRunner::Job<Replayed>> jobs;
  jobs.reserve(campaign.cases.size());
  for (const dse::CaseOutcome& row : campaign.cases) {
    const std::uint64_t index = row.index;
    jobs.push_back({"replay/" + std::to_string(index),
                    [&, index](sys::JobContext&) {
                      return replay_design(configs[index], index, cache,
                                           evaluator, oracles);
                    }});
  }
  sys::BatchRunner runner{kWorkers};
  const Clock::time_point submit = Clock::now();
  const std::vector<std::optional<Replayed>> replayed =
      runner.run_collect(std::move(jobs));

  double wait_ms = 0.0;
  double busy_ms = 0.0;
  Clock::time_point last_end = submit;
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    result.attempted += 1;
    if (!replayed[i].has_value()) {
      result.fail(1, "replay of design " +
                         std::to_string(campaign.cases[i].index) + " threw: " +
                         runner.last_report().jobs[i].error);
      continue;
    }
    const Replayed& r = *replayed[i];
    wait_ms += ms_between(submit, r.start);
    busy_ms += ms_between(r.start, r.end);
    last_end = std::max(last_end, r.end);
    const dse::CaseOutcome& row = campaign.cases[i];
    std::vector<bool> expected;
    for (const dse::OracleResult& verdict : row.oracles) {
      expected.push_back(verdict.pass);
    }
    for (const bool pass : r.verdicts) {
      counters.oracles_failed += pass ? 0 : 1;
    }
    if (r.solution_tag != row.solution_tag || !row.analytic.has_value() ||
        r.designed_kernel_seconds != row.analytic->designed_kernel_seconds ||
        r.verdicts != expected) {
      result.fail(1, "replay of design " + std::to_string(row.index) +
                         " differs from its campaign row");
    }
  }
  const double n = static_cast<double>(replayed.size());
  counters.batch_queue_wait_ms += n > 0.0 ? wait_ms / n : 0.0;
  const double span_ms = ms_between(submit, last_end);
  counters.batch_busy_frac +=
      span_ms > 0.0 ? busy_ms / (static_cast<double>(kWorkers) * span_ms)
                    : 0.0;
  counters.prof_cache_resident_mb +=
      static_cast<double>(cache.resident_bytes()) / 1e6;
  tally.profile_hits += static_cast<double>(cache.hits());
  tally.profile_lookups += static_cast<double>(cache.hits() + cache.misses());
  tally.estimate_hits += static_cast<double>(evaluator.cache().hits());
  tally.estimate_lookups += static_cast<double>(evaluator.cache().hits() +
                                                evaluator.cache().misses());
}

}  // namespace

Result run_sweep_analytic(const Options& options) {
  Result result;
  result.params["designs"] = std::to_string(kDesigns);
  result.params["workers"] = std::to_string(kWorkers);

  // Set-up: draw the sample and fix the campaign (its fingerprint is what
  // a resumable campaign keys its journal by), kSetupReps times. The
  // untraced run sets up again before every campaign, so setup_s, the
  // median, samples the same stretch of time as ops_per_s. Untimed: the
  // reference the timed campaigns must reproduce, the same campaign on
  // one worker.
  std::vector<apps::SyntheticConfig> configs;
  const dse::CampaignOptions campaign =
      campaign_options(options.seed, kWorkers);
  std::vector<double> setup_seconds;
  const auto set_up = [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const Stopwatch setup;
      configs.clear();
      for (std::uint64_t i = 0; i < kDesigns; ++i) {
        configs.push_back(
            dse::sample_config(campaign.space, campaign.campaign_seed, i));
      }
      result.params["campaign_fingerprint"] =
          dse::campaign_fingerprint(campaign);
      setup_seconds.push_back(setup.lap().cpu_ms / 1000.0);
    }
  };
  set_up();
  const std::string reference =
      run_campaign_once(campaign_options(options.seed, 1)).digest;
  result.params["csv_digest_1worker"] = reference;

  const Clock::time_point start = Clock::now();
  if (!options.trace) {
    // Every campaign must reproduce the reference CSV; a mismatch fails
    // all its designs.
    std::vector<double> per_second;
    std::vector<double> campaign_ms;
    std::vector<double> campaign_cpu_ms;
    std::map<std::string, std::vector<double>> design_ms;
    std::size_t unit = 0;
    do {
      // The campaign's workers inherit the main thread's CPUs.
      pin_unit(unit++, kWorkers);
      set_up();
      const CampaignRun run = run_campaign_once(campaign);
      if (run.digest != reference) {
        result.attempted += kDesigns;
        result.fail(kDesigns, "campaign_csv digest " + run.digest +
                                  " differs from the 1-worker " + reference);
      } else {
        check_rows(run.result, result);
      }
      per_second.push_back(static_cast<double>(kDesigns) * 1000.0 /
                           run.cpu_ms);
      campaign_ms.push_back(run.ms);
      campaign_cpu_ms.push_back(run.cpu_ms);
      design_ms["design"].insert(design_ms["design"].end(),
                                 run.design_cpu_ms.begin(),
                                 run.design_cpu_ms.end());
    } while (ms_since(start) < options.seconds * 1000.0);
    add_end_to_end(result, median(setup_seconds), per_second, design_ms);
    result.extra.push_back({"campaign_ms_p50", median(campaign_ms), "ms"});
    result.samples["campaign_ms_p50"] = campaign_ms.size();
    result.extra.push_back(
        {"campaign_cpu_ms_p50", median(campaign_cpu_ms), "ms"});
    result.samples["campaign_cpu_ms_p50"] = campaign_cpu_ms.size();
    return result;
  }

  // Traced run: one pass is one shard (every kTraceShards-th design) of
  // the campaign, run untraced and then replayed traced, so the pair sees
  // the same machine. Shards cycle through the whole sample.
  LayerCounters counters;
  CacheTally tally;
  double untraced_ms = 0.0;
  double passes = 0.0;
  std::uint64_t shard = 0;
  do {
    dse::CampaignOptions sharded = campaign;
    sharded.shard_index = shard++ % kTraceShards;
    sharded.shard_count = kTraceShards;
    const CampaignRun run = run_campaign_once(sharded);
    check_rows(run.result, result);
    for (const double ms : run.design_ms) {
      untraced_ms += ms;
    }
    untraced_ms += run.csv_ms;
    replay_traced(configs, run.result, result, counters, tally);
    {
      const Span op{Layer::kOp, kDesigns + shard};
      const Span span{Layer::kReport};
      if (digest(dse::campaign_csv(run.result)) != run.digest) {
        result.fail(1, "traced campaign_csv differs from the untraced one");
      }
    }
    result.attempted += 1;
    passes += 1.0;
  } while (ms_since(start) < options.seconds * 1000.0);

  counters.prof_cache_hit_ratio =
      tally.profile_lookups > 0.0 ? tally.profile_hits / tally.profile_lookups
                                  : 0.0;
  counters.tiers_hit_ratio =
      tally.estimate_lookups > 0.0
          ? tally.estimate_hits / tally.estimate_lookups
          : 0.0;
  counters.prof_cache_resident_mb /= passes;
  counters.batch_queue_wait_ms /= passes;
  counters.batch_busy_frac /= passes;
  const std::vector<SpanRecord> spans = take_spans();
  write_spans(run_stem(options) + "-spans.jsonl", spans);
  add_per_layer(result, spans, counters, passes, untraced_ms);
  result.params["trace_shards"] = std::to_string(kTraceShards);
  return result;
}

}  // namespace hostbench

// Property-based design-space exploration campaign: sweeps >= 1000
// generated SyntheticConfig design points through profiling, Algorithm 1
// and the tiered evaluation engine (--tier=auto|analytic|cycle; cycle
// rows run all five system variants), checks the invariant oracles per
// design, and shrinks failures into standalone JSON reproducers.
//
// Outputs (full mode):
//   bench_results/dse_campaign.csv       — one row per explored design
//   bench_results/REPORT.md              — a "## Design-space exploration
//                                          campaign" section (idempotent)
//   bench_results/dse_reproducers/*.json — shrunk failure reproducers, if
//                                          any oracle failed (copy into
//                                          tests/fixtures/dse/ to pin them)
// Smoke mode (--smoke, used by CI): a small sweep written to
// bench_results/dse_smoke.csv only; byte-identical across reruns and
// --threads values (every case is sampled from (campaign_seed, index),
// never from time or thread id).
//
// Scaling out (docs/MODEL.md §15): `--shard i/N` evaluates only indices
// where index % N == i, writing `<name>.shardIofN.csv`. Shards share
// nothing; `tools/merge_shards.py` reassembles the N shard CSVs into a
// file byte-identical to the unsharded run.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench/bench_common.hpp"
#include "dse/campaign.hpp"
#include "store/store.hpp"
#include "util/error.hpp"
#include "util/text.hpp"

namespace {

using namespace hybridic;

// Exit codes: 0 ok / 1 failures found / 2 usage / 3 config / 5 journal
// unusable / 6 interrupted and drained / 7 completed with quarantined
// jobs; 6 beats 7 beats 1.
constexpr int kExitFailures = 1;
constexpr int kExitUsage = 2;
constexpr int kExitConfig = 3;
constexpr int kExitStore = 5;
constexpr int kExitInterrupted = 6;
constexpr int kExitQuarantined = 7;

/// Set (only) by the SIGINT/SIGTERM handler; the campaign polls it as an
/// admission gate, drains in-flight jobs, and flushes the journal.
std::atomic<bool> g_stop{false};

void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // No SA_RESTART: the drain must not wait on a retry.
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

struct Options {
  std::size_t threads = 0;
  std::uint64_t count = 1000;
  std::uint64_t seed = 1;
  bool smoke = false;
  tiers::TierMode tier = tiers::TierMode::kCycle;
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  std::uint32_t boards = 1;
  std::string board_topology = "chain";
  std::string journal_path;
  bool resume = false;
  double job_timeout = 0.0;
  bool search = false;
  std::uint32_t search_restarts = 2;
  std::uint32_t search_iterations = 60;
};

void print_help(const char* argv0, std::ostream& out) {
  out << "usage: " << argv0
      << " [--threads N] [--count N] [--seed S]"
      << " [--tier auto|analytic|cycle] [--smoke]"
      << " [--shard I/N]"
      << " [--boards N] [--board-topology chain|ring|mesh]"
      << " [--journal FILE] [--resume] [--job-timeout S]\n"
      << "       [--search anneal] [--search-restarts N]"
      << " [--search-iterations N]\n"
      << "\n"
      << "Property-based design-space exploration campaign: sweeps\n"
      << "generated design points through profiling, Algorithm 1 and the\n"
      << "tiered evaluation engine, checks the invariant oracles, and\n"
      << "shrinks failures into JSON reproducers.\n"
      << "\n"
      << "  --threads N     worker threads (0 = hardware concurrency)\n"
      << "  --count N       design points to sweep (default 1000; 32 with"
      << " --smoke)\n"
      << "  --seed S        campaign seed (default 1)\n"
      << "  --tier MODE     auto | analytic | cycle (default cycle)\n"
      << "  --smoke         small CI sweep -> bench_results/dse_smoke.csv\n"
      << "  --shard I/N     evaluate only indices with index % N == I\n"
      << "  --boards N      sample board counts in [1, N]; N > 1 runs the\n"
      << "                  two-level multi-board design on sampled rows\n"
      << "  --board-topology chain|ring|mesh   inter-board network shape\n"
      << "  --journal FILE  append-only run journal: every settled design\n"
      << "                  is checkpointed the moment it completes\n"
      << "  --resume        skip designs already journaled for this exact\n"
      << "                  campaign (requires --journal)\n"
      << "  --job-timeout S wall-clock watchdog per design; a design that\n"
      << "                  exceeds it is quarantined, not retried\n"
      << "  --search anneal run the seeded annealer on every design and\n"
      << "                  record it next to Algorithm 1 (searched_* CSV\n"
      << "                  columns + the REPORT Pareto section)\n"
      << "  --search-restarts N    annealer restarts per design"
      << " (default 2)\n"
      << "  --search-iterations N  annealer iterations per restart"
      << " (default 60)\n"
      << "  --version       print the engine revision and exit 0\n"
      << "  --help          print this help and exit 0\n"
      << "\n"
      << "SIGINT/SIGTERM stop admission, drain in-flight designs, flush\n"
      << "the journal, and exit 6; a later --resume run continues where\n"
      << "the drain stopped.\n"
      << "\n"
      << "Exit codes:\n"
      << "  0  campaign completed, every oracle passed\n"
      << "  1  campaign completed with oracle failures (or errors)\n"
      << "  2  usage error: unknown flag or malformed value\n"
      << "  3  semantic configuration error\n"
      << "  5  store error: --journal file unusable\n"
      << "  6  interrupted by SIGINT/SIGTERM and drained cleanly\n"
      << "  7  campaign completed but quarantined >= 1 poison design\n";
}

void usage(const char* argv0) {
  print_help(argv0, std::cerr);
  std::exit(kExitUsage);
}

/// `v` as a strict decimal (util/text.hpp) in [min, max]; anything else
/// exits with the usage code, naming `flag`.
std::uint64_t unsigned_flag(const std::string& flag, const std::string& v,
                            std::uint64_t min = 0,
                            std::uint64_t max = UINT64_MAX) {
  std::uint64_t value = 0;
  if (!text::parse_u64(v, value) || value < min || value > max) {
    std::cerr << flag << " expects a "
              << (min > 0 ? "positive" : "non-negative") << " integer, got '"
              << v << "'\n";
    std::exit(kExitUsage);
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  bool count_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& flag) -> std::string {
      if (arg == flag && i + 1 < argc) {
        return argv[++i];
      }
      if (arg.rfind(flag + "=", 0) == 0) {
        return arg.substr(flag.size() + 1);
      }
      return "";
    };
    if (arg == "--help") {
      print_help(argv[0], std::cout);
      std::exit(0);
    }
    if (arg == "--version") {
      std::cout << "dse_campaign engine revision "
                << store::kEngineRevision << "\n";
      std::exit(0);
    }
    if (arg == "--resume") {
      options.resume = true;
      continue;
    }
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (std::string v = value_of("--threads"); !v.empty()) {
      options.threads = unsigned_flag("--threads", v);
      continue;
    }
    if (std::string v = value_of("--count"); !v.empty()) {
      options.count = unsigned_flag("--count", v);
      count_given = true;
      continue;
    }
    if (std::string v = value_of("--seed"); !v.empty()) {
      options.seed = unsigned_flag("--seed", v);
      continue;
    }
    if (std::string v = value_of("--journal"); !v.empty()) {
      options.journal_path = v;
      continue;
    }
    if (std::string v = value_of("--job-timeout"); !v.empty()) {
      if (!text::parse_f64(v, options.job_timeout) ||
          !(options.job_timeout > 0.0)) {
        std::cerr << "--job-timeout expects a positive number of seconds, "
                     "got '"
                  << v << "'\n";
        std::exit(kExitUsage);
      }
      continue;
    }
    if (std::string v = value_of("--shard"); !v.empty()) {
      const std::size_t slash = v.find('/');
      if (slash == std::string::npos ||
          !text::parse_u64(v.substr(0, slash), options.shard_index) ||
          !text::parse_u64(v.substr(slash + 1), options.shard_count)) {
        std::cerr << "--shard expects I/N (e.g. --shard 0/2)\n";
        std::exit(kExitUsage);
      }
      if (options.shard_count == 0 ||
          options.shard_index >= options.shard_count) {
        std::cerr << "--shard " << v << ": need 0 <= I < N\n";
        std::exit(kExitUsage);
      }
      continue;
    }
    if (std::string v = value_of("--tier"); !v.empty()) {
      if (const auto mode = tiers::parse_tier_mode(v)) {
        options.tier = *mode;
        continue;
      }
      std::cerr << "unknown --tier value '" << v
                << "' (expected auto, analytic, or cycle)\n";
      std::exit(kExitUsage);
    }
    if (std::string v = value_of("--search"); !v.empty()) {
      if (v != "anneal") {
        std::cerr << "unknown --search value '" << v
                  << "' (expected anneal)\n";
        std::exit(kExitUsage);
      }
      options.search = true;
      continue;
    }
    if (std::string v = value_of("--search-restarts"); !v.empty()) {
      options.search_restarts = static_cast<std::uint32_t>(
          unsigned_flag("--search-restarts", v, 1, UINT32_MAX));
      continue;
    }
    if (std::string v = value_of("--search-iterations"); !v.empty()) {
      options.search_iterations = static_cast<std::uint32_t>(
          unsigned_flag("--search-iterations", v, 1, UINT32_MAX));
      continue;
    }
    if (std::string v = value_of("--boards"); !v.empty()) {
      options.boards = static_cast<std::uint32_t>(
          unsigned_flag("--boards", v, 1, UINT32_MAX));
      continue;
    }
    if (std::string v = value_of("--board-topology"); !v.empty()) {
      if (v != "chain" && v != "ring" && v != "mesh") {
        std::cerr << "unknown --board-topology value '" << v
                  << "' (expected chain, ring, or mesh)\n";
        std::exit(kExitUsage);
      }
      options.board_topology = v;
      continue;
    }
    std::cerr << "unknown flag '" << arg << "'\n";
    usage(argv[0]);
  }
  if (options.smoke && !count_given) {
    options.count = 32;
  }
  if (options.shard_count > 1 && options.tier == tiers::TierMode::kAuto) {
    // Auto-mode escalation selection is global; a shard cannot rank
    // against estimates it never computed.
    std::cerr << "--shard requires --tier=analytic or --tier=cycle\n";
    std::exit(kExitUsage);
  }
  if (options.resume && options.journal_path.empty()) {
    std::cerr << "--resume requires --journal FILE\n";
    std::exit(kExitUsage);
  }
  if (!options.journal_path.empty() &&
      options.tier == tiers::TierMode::kAuto) {
    // Same global-selection problem as sharding: a resumed run would
    // rank escalations against a different survivor set.
    std::cerr << "--journal requires --tier=analytic or --tier=cycle\n";
    std::exit(kExitUsage);
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  install_signal_handlers();

  dse::CampaignOptions campaign;
  campaign.count = options.count;
  campaign.campaign_seed = options.seed;
  campaign.threads = options.threads;
  campaign.tier = options.tier;
  campaign.shard_index = options.shard_index;
  campaign.shard_count = options.shard_count;
  campaign.journal_path = options.journal_path;
  campaign.resume = options.resume;
  campaign.job_timeout_seconds = options.job_timeout;
  campaign.search = options.search;
  campaign.search_restarts = options.search_restarts;
  campaign.search_iterations = options.search_iterations;
  campaign.stop_requested = &g_stop;
  // Test harness hook: HYBRIDIC_WEDGE_INDEX=N wedges design N forever,
  // exercising the watchdog/quarantine path from the real binary. The
  // abandoned thread sleeps until process exit.
  if (const char* wedge_env = std::getenv("HYBRIDIC_WEDGE_INDEX")) {
    const std::uint64_t wedge_index =
        unsigned_flag("HYBRIDIC_WEDGE_INDEX", wedge_env);
    campaign.job_started_hook = [wedge_index](std::uint64_t index) {
      while (index == wedge_index) {
        std::this_thread::sleep_for(std::chrono::seconds(3600));
      }
    };
  }
  if (options.boards > 1) {
    campaign.space.min_boards = 1;
    campaign.space.max_boards = options.boards;
    campaign.space.board_topologies = {options.board_topology};
  }
  if (options.smoke) {
    // CI smoke: keep the sweep cheap and skip shrinking (a shrink run
    // re-executes the pipeline dozens of times).
    campaign.space.max_kernels = 6;
    campaign.max_shrinks = 0;
  }

  const auto t0 = std::chrono::steady_clock::now();
  dse::CampaignResult result;
  try {
    result = dse::run_campaign(campaign);
  } catch (const store::StoreError& e) {
    std::cerr << "store error: " << e.what() << "\n";
    return kExitStore;
  } catch (const ConfigError& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return kExitConfig;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t failures = 0;
  for (const auto& outcome : result.cases) {
    if (!outcome.all_pass()) {
      ++failures;
    }
  }

  const dse::TierStats& tiers_ran = result.tier_stats;
  std::cout << "tier=" << tiers::to_string(campaign.tier) << " analytic="
            << tiers_ran.analytic_evals << " cycle=" << tiers_ran.cycle_evals
            << " band_violations=" << tiers_ran.band_violations << " elapsed="
            << elapsed << "s ("
            << (elapsed > 0.0
                    ? static_cast<double>(result.cases.size()) / elapsed
                    : 0.0)
            << " designs/s)\n";
  if (options.shard_count > 1) {
    std::cout << "shard " << options.shard_index << "/"
              << options.shard_count << ": " << result.cases.size()
              << " of " << options.count << " designs\n";
  }
  if (!options.journal_path.empty()) {
    std::cout << "journal " << options.journal_path
              << ": resumed=" << result.resumed_count
              << " quarantined=" << result.quarantined_count
              << " drained=" << result.skipped_count
              << " damaged_lines=" << result.journal_skipped_lines << "\n";
  }
  if (result.interrupted) {
    std::cout << "interrupted: admission stopped, in-flight designs "
                 "drained, journal flushed ("
              << result.skipped_count << " designs not started)\n";
  }

  // Live cache counters: stdout only — they vary with thread count and
  // shard split, so they never enter the CSV/REPORT.
  const apps::ProfileCacheStats& pc = result.profile_cache_stats;
  std::cout << "profile_cache hits=" << pc.hits << " misses=" << pc.misses
            << " evictions=" << pc.evictions << " resident_entries="
            << pc.entries << " resident_bytes=" << pc.resident_bytes
            << "\n";

  // Shard runs suffix their CSV so N concurrent shards never clobber
  // each other; the merge tool globs the suffix.
  const auto shard_name = [&options](const std::string& base) {
    if (options.shard_count <= 1) {
      return base;
    }
    return base + ".shard" + std::to_string(options.shard_index) + "of" +
           std::to_string(options.shard_count);
  };

  if (options.smoke) {
    const std::string path = bench::csv_path(shard_name("dse_smoke"));
    std::ofstream out{path};
    out << dse::campaign_csv(result);
    std::cout << "wrote " << path << " (" << result.cases.size()
              << " designs, " << failures << " with failures)\n";
    // Smoke skips oracle shrinking (max_shrinks 0) but still pins poison
    // designs: quarantine reproducers bypass that budget.
    const std::vector<std::string> saved = dse::save_reproducers(
        result, "bench_results/dse_reproducers");
    for (const std::string& p : saved) {
      std::cout << "shrunk reproducer: " << p << "\n";
    }
  } else {
    const std::string path = bench::csv_path(shard_name("dse_campaign"));
    std::ofstream out{path};
    out << dse::campaign_csv(result);
    if (options.shard_count <= 1) {
      bench::patch_report_section(dse::campaign_section_marker(),
                                  dse::campaign_markdown(result, campaign));
    }
    const std::vector<std::string> saved = dse::save_reproducers(
        result, "bench_results/dse_reproducers");
    std::cout << "wrote " << path << " (" << result.cases.size()
              << " designs, " << failures << " with failures)"
              << (options.shard_count <= 1
                      ? " and the REPORT.md campaign section"
                      : "")
              << "\n";
    for (const std::string& p : saved) {
      std::cout << "shrunk reproducer: " << p << "\n";
    }
  }
  // Precedence: a drain outranks quarantine outranks oracle failures —
  // the caller must first learn the run is incomplete, then that some
  // designs never produced a verdict, then the verdicts themselves.
  if (result.interrupted) {
    return kExitInterrupted;
  }
  if (result.quarantined_count > 0) {
    return kExitQuarantined;
  }
  return failures == 0 ? 0 : kExitFailures;
}

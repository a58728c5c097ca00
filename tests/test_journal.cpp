// Run journal + outcome codec: the PR 9 crash-safety ledger.
//  (a) append/read round-trips entries, including payloads with newlines
//      and backslashes;
//  (b) per-line damage (tampered checksum, truncation, torn final line)
//      is skipped and counted, never returned as a wrong entry;
//  (c) a missing journal reads as empty (first run of a campaign);
//  (d) encode_outcome/decode_outcome round-trips every CaseOutcome field
//      bit-exactly, with and without the analytic estimate;
//  (e) campaign_fingerprint moves under any spec change that would make
//      journaled rows unsound to restore.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dse/campaign.hpp"
#include "dse/outcome_codec.hpp"
#include "store/journal.hpp"
#include "tiers/analytic.hpp"
#include "util/error.hpp"

namespace hybridic {
namespace {

std::string temp_journal_path(const char* tag) {
  return testing::TempDir() + "journal_test_" + tag + ".log";
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>{in},
                     std::istreambuf_iterator<char>{}};
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << text;
}

TEST(Journal, AppendReadRoundTripsEntries) {
  const std::string path = temp_journal_path("roundtrip");
  std::remove(path.c_str());
  {
    store::Journal journal{path};
    journal.append("00000000deadbeef", "dse/7/0", "payload zero");
    journal.append("00000000deadbeef", "dse/7/1",
                   "multi\nline\\payload\rwith every escape");
    journal.append("00000000deadbeef", "dse/7/2", "");
    EXPECT_EQ(journal.appended(), 3U);
  }
  const store::Journal::ReadResult read = store::Journal::read(path);
  EXPECT_EQ(read.skipped_lines, 0U);
  ASSERT_EQ(read.entries.size(), 3U);
  EXPECT_EQ(read.entries[0].key, "dse/7/0");
  EXPECT_EQ(read.entries[0].payload, "payload zero");
  EXPECT_EQ(read.entries[1].payload,
            "multi\nline\\payload\rwith every escape");
  EXPECT_EQ(read.entries[2].payload, "");
  for (const store::Journal::Entry& entry : read.entries) {
    EXPECT_EQ(entry.fingerprint, "00000000deadbeef");
  }
}

TEST(Journal, MissingFileReadsAsEmpty) {
  const store::Journal::ReadResult read =
      store::Journal::read(testing::TempDir() + "does_not_exist.log");
  EXPECT_TRUE(read.entries.empty());
  EXPECT_EQ(read.skipped_lines, 0U);
}

TEST(Journal, TamperedChecksumIsSkippedAndCounted) {
  const std::string path = temp_journal_path("tamper");
  std::remove(path.c_str());
  {
    store::Journal journal{path};
    journal.append("0123456789abcdef", "dse/1/0", "good zero");
    journal.append("0123456789abcdef", "dse/1/1", "to be damaged");
    journal.append("0123456789abcdef", "dse/1/2", "good two");
  }
  std::string text = slurp(path);
  const std::size_t at = text.find("damaged");
  ASSERT_NE(at, std::string::npos);
  text[at] = 'X';
  spit(path, text);
  const store::Journal::ReadResult read = store::Journal::read(path);
  EXPECT_EQ(read.skipped_lines, 1U);
  ASSERT_EQ(read.entries.size(), 2U);
  EXPECT_EQ(read.entries[0].key, "dse/1/0");
  EXPECT_EQ(read.entries[1].key, "dse/1/2");
}

TEST(Journal, TornFinalLineDegradesToSkip) {
  const std::string path = temp_journal_path("torn");
  std::remove(path.c_str());
  {
    store::Journal journal{path};
    journal.append("0123456789abcdef", "dse/2/0", "survives");
    journal.append("0123456789abcdef", "dse/2/1", "will be torn");
  }
  std::string text = slurp(path);
  // A crash mid-write tears the final line at an arbitrary byte. Every
  // possible tear must parse to "one good entry + skip", never to a
  // wrong payload.
  const std::size_t second_start = text.find('\n') + 1;
  for (std::size_t keep = second_start; keep + 1 < text.size(); ++keep) {
    spit(path, text.substr(0, keep));
    const store::Journal::ReadResult read = store::Journal::read(path);
    if (keep == second_start) {
      // Tear before any byte of line 2: just a clean one-entry journal.
      EXPECT_EQ(read.skipped_lines, 0U);
    } else {
      EXPECT_EQ(read.skipped_lines, 1U) << "tear at byte " << keep;
    }
    ASSERT_EQ(read.entries.size(), 1U) << "tear at byte " << keep;
    EXPECT_EQ(read.entries[0].payload, "survives");
  }
  // Losing only the trailing newline leaves a complete record: accepted.
  spit(path, text.substr(0, text.size() - 1));
  const store::Journal::ReadResult read = store::Journal::read(path);
  EXPECT_EQ(read.skipped_lines, 0U);
  ASSERT_EQ(read.entries.size(), 2U);
  EXPECT_EQ(read.entries[1].payload, "will be torn");
}

TEST(Journal, GarbageLinesNeverThrow) {
  const std::string path = temp_journal_path("garbage");
  spit(path,
       "not a journal line\n"
       "J1 tooshort 0123456789abcdef key payload\n"
       "J1 0123456789abcdef 0123456789abcdef\n"
       "\n");
  const store::Journal::ReadResult read = store::Journal::read(path);
  EXPECT_TRUE(read.entries.empty());
  EXPECT_EQ(read.skipped_lines, 4U);
}

TEST(Journal, RejectsUnsafeKeys) {
  const std::string path = temp_journal_path("unsafe");
  std::remove(path.c_str());
  store::Journal journal{path};
  EXPECT_THROW(journal.append("0123456789abcdef", "key with space", "p"),
               store::StoreError);
  EXPECT_THROW(journal.append("0123456789abcdef", "", "p"),
               store::StoreError);
}

// ---------------------------------------------------------------------------
// Outcome codec.

dse::CaseOutcome sample_outcome() {
  dse::CaseOutcome o;
  o.index = 23;
  o.config.kernel_count = 5;
  o.config.host_function_count = 3;
  o.config.kernel_edge_probability = 0.37251;
  o.config.min_edge_bytes = 2048;
  o.config.max_edge_bytes = 65536;
  o.config.min_work_units = 7001;
  o.config.max_work_units = 190001;
  o.config.duplicable_probability = 0.125;
  o.config.streaming_probability = 0.625;
  o.config.seed = 0xfeedface12345678ULL;
  o.config.board_count = 3;
  o.config.board_topology = "ring";
  o.solution_tag = "NoC; SM; P";
  o.simulated = true;
  o.baseline_seconds = 0.037;
  o.designed_seconds = 0.021;
  o.crossbar_seconds = 0.019;
  o.pipelined_makespan_seconds = 0.0555;
  o.measured_designed_kernel_seconds = 0.0171;
  o.escalation = tiers::EscalationReason::kOracle;
  o.band_violation = true;
  o.multi_total_seconds = 0.062;
  o.cut_bytes = 4096;
  o.inter_board_bytes = 8192;
  o.board_link_reroutes = 2;
  o.oracles.push_back({"speedup-sanity", false, "0.9x < 1.0x"});
  o.oracles.push_back({"baseline-band", true, ""});
  o.error = "an error\nwith a newline";
  return o;
}

void expect_outcomes_equal(const dse::CaseOutcome& a,
                           const dse::CaseOutcome& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.config.kernel_count, b.config.kernel_count);
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.config.board_topology, b.config.board_topology);
  // Doubles travel as hex floats: equality must be exact, not approx.
  EXPECT_EQ(a.config.kernel_edge_probability,
            b.config.kernel_edge_probability);
  EXPECT_EQ(a.baseline_seconds, b.baseline_seconds);
  EXPECT_EQ(a.designed_seconds, b.designed_seconds);
  EXPECT_EQ(a.crossbar_seconds, b.crossbar_seconds);
  EXPECT_EQ(a.pipelined_makespan_seconds, b.pipelined_makespan_seconds);
  EXPECT_EQ(a.measured_designed_kernel_seconds,
            b.measured_designed_kernel_seconds);
  EXPECT_EQ(a.solution_tag, b.solution_tag);
  EXPECT_EQ(a.simulated, b.simulated);
  EXPECT_EQ(a.escalation, b.escalation);
  EXPECT_EQ(a.band_violation, b.band_violation);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.multi_total_seconds, b.multi_total_seconds);
  EXPECT_EQ(a.cut_bytes, b.cut_bytes);
  EXPECT_EQ(a.inter_board_bytes, b.inter_board_bytes);
  EXPECT_EQ(a.board_link_reroutes, b.board_link_reroutes);
  EXPECT_EQ(a.error, b.error);
  ASSERT_EQ(a.oracles.size(), b.oracles.size());
  for (std::size_t i = 0; i < a.oracles.size(); ++i) {
    EXPECT_EQ(a.oracles[i].oracle, b.oracles[i].oracle);
    EXPECT_EQ(a.oracles[i].pass, b.oracles[i].pass);
    EXPECT_EQ(a.oracles[i].message, b.oracles[i].message);
  }
  EXPECT_EQ(a.analytic.has_value(), b.analytic.has_value());
  if (a.analytic.has_value() && b.analytic.has_value()) {
    EXPECT_EQ(a.analytic->designed_kernel_seconds,
              b.analytic->designed_kernel_seconds);
    EXPECT_EQ(a.analytic->congruence_key, b.analytic->congruence_key);
    EXPECT_EQ(a.analytic->noc_hop_bytes, b.analytic->noc_hop_bytes);
  }
}

TEST(OutcomeCodec, RoundTripsWithoutAnalytic) {
  const dse::CaseOutcome original = sample_outcome();
  const std::optional<dse::CaseOutcome> decoded =
      dse::decode_outcome(dse::encode_outcome(original));
  ASSERT_TRUE(decoded.has_value());
  expect_outcomes_equal(original, *decoded);
  // Re-encoding the decoded outcome is byte-identical (the resume path
  // re-journals restored rows only implicitly, but byte-stability is
  // what makes double appends benign).
  EXPECT_EQ(dse::encode_outcome(original), dse::encode_outcome(*decoded));
}

TEST(OutcomeCodec, RoundTripsWithAnalyticEstimate) {
  dse::CaseOutcome original = sample_outcome();
  tiers::TierEstimate estimate;
  estimate.solution_tag = "NoC, P";
  estimate.baseline_kernel_seconds = 0.031;
  estimate.designed_kernel_seconds = 0.0185;
  estimate.designed_lower_seconds = 0.009;
  estimate.designed_upper_seconds = 0.044;
  estimate.noc_hop_bytes = 123456;
  estimate.congruence_key = 0xabcdef0011223344ULL;
  original.analytic = estimate;
  const std::optional<dse::CaseOutcome> decoded =
      dse::decode_outcome(dse::encode_outcome(original));
  ASSERT_TRUE(decoded.has_value());
  expect_outcomes_equal(original, *decoded);
}

TEST(OutcomeCodec, QuarantinedAndSkippedFlagsSurvive) {
  dse::CaseOutcome original = sample_outcome();
  original.quarantined = true;
  original.skipped = false;
  original.simulated = false;
  const std::optional<dse::CaseOutcome> decoded =
      dse::decode_outcome(dse::encode_outcome(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->quarantined);
  EXPECT_FALSE(decoded->skipped);
}

TEST(OutcomeCodec, DamagedPayloadsDecodeToNullopt) {
  const std::string good = dse::encode_outcome(sample_outcome());
  EXPECT_TRUE(dse::decode_outcome(good).has_value());
  EXPECT_FALSE(dse::decode_outcome("").has_value());
  EXPECT_FALSE(dse::decode_outcome("outcome 2\n").has_value());
  // Every prefix truncation fails cleanly (no partial outcome).
  for (std::size_t keep = 0; keep < good.size(); keep += 7) {
    EXPECT_FALSE(dse::decode_outcome(good.substr(0, keep)).has_value())
        << "truncation at " << keep;
  }
  // Trailing junk is rejected too.
  EXPECT_FALSE(dse::decode_outcome(good + "extra\n").has_value());
}

// ---------------------------------------------------------------------------
// Campaign fingerprint.

TEST(CampaignFingerprint, MovesUnderAnySpecChange) {
  dse::CampaignOptions base;
  base.count = 48;
  base.campaign_seed = 7;
  base.tier = tiers::TierMode::kCycle;
  const std::string fp = dse::campaign_fingerprint(base);
  EXPECT_EQ(fp.size(), 16U);
  EXPECT_EQ(fp, dse::campaign_fingerprint(base));  // Deterministic.

  const auto differs = [&fp](dse::CampaignOptions changed,
                             const char* what) {
    EXPECT_NE(dse::campaign_fingerprint(changed), fp) << what;
  };
  {
    dse::CampaignOptions c = base;
    c.count = 49;
    differs(c, "count");
  }
  {
    dse::CampaignOptions c = base;
    c.campaign_seed = 8;
    differs(c, "seed");
  }
  {
    dse::CampaignOptions c = base;
    c.tier = tiers::TierMode::kAnalytic;
    differs(c, "tier");
  }
  {
    dse::CampaignOptions c = base;
    c.shard_count = 2;
    differs(c, "shard spec");
  }
  {
    dse::CampaignOptions c = base;
    c.space.max_kernels += 1;
    differs(c, "sweep space");
  }
  {
    dse::CampaignOptions c = base;
    c.space.board_topologies = {"mesh"};
    differs(c, "board topology");
  }
  {
    dse::CampaignOptions c = base;
    c.bounds.speedup_slack += 0.001;
    differs(c, "oracle bounds");
  }
  {
    dse::CampaignOptions c = base;
    c.job_timeout_seconds = 2.0;
    differs(c, "watchdog budget");
  }
  // Fields that do NOT change what a row contains keep the fingerprint:
  // thread count and resume flags must not invalidate a journal.
  {
    dse::CampaignOptions c = base;
    c.threads = 7;
    c.resume = true;
    c.journal_path = "elsewhere.log";
    c.profile_cache_max_entries = 1;
    EXPECT_EQ(dse::campaign_fingerprint(c), fp);
  }
}

}  // namespace
}  // namespace hybridic

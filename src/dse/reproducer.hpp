// Standalone JSON reproducers for campaign failures: when an oracle fails
// on a generated design, the shrinker minimizes the SyntheticConfig and
// the campaign pins (oracle, expected outcome, config) as a small JSON
// file. test_dse_regressions replays every checked-in reproducer, so each
// campaign failure becomes a permanent regression test.
#pragma once

#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "dse/oracles.hpp"

namespace hybridic::dse {

/// What a replay of the reproducer must observe.
enum class Expectation : std::uint8_t {
  kPass,  ///< The bug was fixed; the oracle must stay green.
  kFail,  ///< A pinned live failure (e.g. the mutation check) must still
          ///< reproduce.
};

/// One replayable campaign failure.
struct Reproducer {
  int schema = 1;
  std::string oracle;               ///< Oracle name to replay.
  Expectation expect = Expectation::kPass;
  std::string message;              ///< Failure message when pinned.
  apps::SyntheticConfig config;     ///< The (shrunk) offending config.
};

/// Serialize to pretty-printed JSON (stable field order).
[[nodiscard]] std::string to_json(const Reproducer& reproducer);

/// Parse a reproducer back from strict JSON (util/text.hpp); throws
/// ConfigError naming the missing/malformed field, and on any config
/// validate_synthetic_config rejects. Unknown config fields are rejected
/// so typos in hand-edited fixtures are caught.
[[nodiscard]] Reproducer parse_reproducer(const std::string& json);

/// Load and parse one reproducer file; throws ConfigError if unreadable.
[[nodiscard]] Reproducer load_reproducer(const std::string& path);

/// Re-run the reproducer's oracle on its config. Returns the oracle
/// outcome (the caller compares against `expect`).
[[nodiscard]] OracleResult replay(const Reproducer& reproducer,
                                  const OracleBounds& bounds = {});

/// File name a reproducer is saved under: "<oracle>-seed<seed>.json".
[[nodiscard]] std::string reproducer_file_name(const Reproducer& reproducer);

}  // namespace hybridic::dse

// The one set of readers for every byte HybridIC reads back: reproducer
// JSON, hybridic_serve request lines, store entries, journal payloads and
// command-line flags. Each reader is strict and total: it accepts exactly
// what the matching writer emits (plus the RFC 8259 freedoms the JSON
// readers document) and reports anything else as a failure, never as an
// exception of its own. Callers map a failure to their documented error
// class (ConfigError, a "usage" reply, exit code 2, a store miss).
//
// Next to the readers sit the one writer per number format those bytes
// use: hex16 (hashes, checksums, fingerprints), decimal17 (CSV cells,
// reproducer JSON, serve replies) and hexf (codec payloads, signatures).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hybridic::text {

/// Strict decimal: one or more ASCII digits, no sign, no whitespace, no
/// overflow. `value` is unspecified on failure.
[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t& value);
[[nodiscard]] bool parse_u32(std::string_view text, std::uint32_t& value);

/// strtod over the whole token: false when empty, when it starts with
/// whitespace, when bytes remain, or when the value is lost to a range
/// error (an overflow to infinity or an underflow to zero). A decimal
/// that rounds to a subnormal keeps its value and is accepted, so every
/// decimal17 spelling reads back. It stays strtod, not a hand-written
/// conversion, so every accepted spelling rounds as the C library rounds
/// it and decoded values (and the replies built from them) keep their
/// bytes.
[[nodiscard]] bool parse_f64(const std::string& text, double& value);

/// "0" or "1".
[[nodiscard]] bool parse_bool(std::string_view text, bool& value);

/// Exactly 16 lowercase hex digits, zero-padded ("%016llx").
[[nodiscard]] std::string hex16(std::uint64_t value);

/// Shortest-safe decimal ("%.17g"): 17 significant digits, which
/// parse_f64 reads back to the identical double.
[[nodiscard]] std::string decimal17(double value);

/// C99 hex-float ("%a"): exact, locale-free; parse_f64 reads it back to
/// the identical bit pattern.
[[nodiscard]] std::string hexf(double value);

/// Split a line on single spaces. Empty when any field is empty (leading,
/// doubled or trailing space) or the line is empty.
[[nodiscard]] std::vector<std::string> split_fields(std::string_view line);

/// JSON string body: escapes '"', '\\', '\n', '\t', '\r' by name and every
/// other byte below 0x20 as "\u00xx" (lowercase hex); all other bytes,
/// UTF-8 included, pass through.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Sequential reader over the line-oriented codec payloads (store entries,
/// estimates, profiles, journaled outcomes). Every take_* returns false on
/// any shape violation and the caller bails out to "malformed".
class Reader {
public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// The bytes up to the next '\n' (which is consumed).
  bool take_line(std::string& line);
  /// A line "<tag> <rest>"; fails unless the tag matches.
  bool take_tagged(std::string_view tag, std::string& rest);
  /// A line equal to `expected`.
  bool take_exact(std::string_view expected);
  /// A "<tag> <len>" line followed by exactly len raw bytes and a '\n'.
  bool take_sized(std::string_view tag, std::string& value);
  /// Exactly `len` raw bytes followed by a '\n'.
  bool take_raw(std::uint64_t len, std::string& value);
  /// A line of exactly `count` split_fields fields, after "<tag> " unless
  /// `tag` is empty.
  bool take_fields(std::string_view tag, std::size_t count,
                   std::vector<std::string>& fields);

  [[nodiscard]] bool at_end() const { return pos_ == text_.size(); }

private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// One member value of a flat JSON object.
struct JsonValue {
  enum class Kind : std::uint8_t { kString, kNumber, kBool, kObject };
  Kind kind = Kind::kString;
  /// A string's decoded bytes, a number's spelling, "1"/"0" for
  /// true/false; empty for the nested object.
  std::string text;

  /// Typed views; false unless the kind matches and the text parses.
  [[nodiscard]] bool as_string(std::string& out) const;
  [[nodiscard]] bool as_u64(std::uint64_t& out) const;
  [[nodiscard]] bool as_u32(std::uint32_t& out) const;
  [[nodiscard]] bool as_f64(double& out) const;
};

using JsonObject = std::map<std::string, JsonValue>;

/// A parsed flat JSON document.
struct FlatJson {
  JsonObject fields;  ///< Top-level members; the nested one is kObject.
  JsonObject nested;  ///< Members of the nested object, if there is one.
};

/// Strict RFC 8259 subset: one object whose members are strings, numbers,
/// true or false, plus at most one member holding an object of such
/// scalars. Whitespace is space, tab, CR or LF. Rejects duplicate keys (at
/// either level), raw bytes below 0x20 inside strings, any escape that
/// json_escape does not emit, numbers outside the JSON grammar ("+7",
/// "1.", "1e", "-", "01"), null, arrays, deeper nesting and trailing
/// bytes. On rejection returns false with `error` naming the problem.
[[nodiscard]] bool parse_flat_json(std::string_view text, FlatJson& out,
                                   std::string& error);

}  // namespace hybridic::text

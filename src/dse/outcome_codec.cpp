#include "dse/outcome_codec.hpp"

#include <sstream>
#include <vector>

#include "store/codec.hpp"
#include "util/text.hpp"

namespace hybridic::dse {

namespace {

using text::hexf;
using text::parse_bool;
using text::parse_f64;
using text::parse_u32;
using text::parse_u64;
using text::Reader;

constexpr const char* kMagic = "outcome 1";

}  // namespace

std::string encode_outcome(const CaseOutcome& o) {
  std::ostringstream out;
  out << kMagic << '\n';
  out << "index " << o.index << '\n';
  const apps::SyntheticConfig& c = o.config;
  out << "config " << c.kernel_count << ' ' << c.host_function_count << ' '
      << hexf(c.kernel_edge_probability) << ' ' << c.min_edge_bytes << ' '
      << c.max_edge_bytes << ' ' << c.min_work_units << ' '
      << c.max_work_units << ' ' << hexf(c.duplicable_probability) << ' '
      << hexf(c.streaming_probability) << ' ' << c.seed << ' '
      << c.board_count << '\n';
  out << "topology " << c.board_topology.size() << '\n'
      << c.board_topology << '\n';
  out << "tag " << o.solution_tag.size() << '\n' << o.solution_tag << '\n';
  out << "times " << hexf(o.baseline_seconds) << ' '
      << hexf(o.designed_seconds) << ' ' << hexf(o.crossbar_seconds) << ' '
      << hexf(o.pipelined_makespan_seconds) << ' '
      << hexf(o.measured_designed_kernel_seconds) << '\n';
  out << "flags " << (o.simulated ? 1 : 0) << ' '
      << static_cast<unsigned>(o.escalation) << ' '
      << (o.band_violation ? 1 : 0) << ' ' << (o.quarantined ? 1 : 0) << ' '
      << (o.skipped ? 1 : 0) << '\n';
  out << "multi " << hexf(o.multi_total_seconds) << ' ' << o.cut_bytes
      << ' ' << o.inter_board_bytes << ' ' << o.board_link_reroutes << '\n';
  out << "oracles " << o.oracles.size() << '\n';
  for (const OracleResult& r : o.oracles) {
    out << "oracle " << (r.pass ? 1 : 0) << ' ' << r.oracle.size() << '\n'
        << r.oracle << '\n';
    out << "msg " << r.message.size() << '\n' << r.message << '\n';
  }
  out << "error " << o.error.size() << '\n' << o.error << '\n';
  if (o.analytic.has_value()) {
    const std::string blob = store::encode_estimate(*o.analytic);
    out << "analytic " << blob.size() << '\n' << blob << '\n';
  } else {
    out << "analytic -\n";
  }
  // Optional searched record (--search campaigns only): absent on every
  // pre-search ledger, so old journals decode exactly as before.
  if (o.searched.has_value()) {
    const search::SearchRecord& s = *o.searched;
    out << "searched-tag " << s.solution_tag.size() << '\n'
        << s.solution_tag << '\n';
    out << "searched " << hexf(s.analytic_seconds) << ' '
        << hexf(s.algorithm1_analytic_seconds) << ' ' << hexf(s.gain) << ' '
        << s.luts << ' ' << s.algorithm1_luts << ' ' << s.best_restart
        << ' ' << s.proposed << ' ' << s.accepted << ' '
        << s.rejected_illegal << ' ' << s.cache_hits << '\n';
  }
  out << "end\n";
  return out.str();
}

std::optional<CaseOutcome> decode_outcome(const std::string& payload) {
  Reader reader{payload};
  CaseOutcome o;
  apps::SyntheticConfig& c = o.config;
  std::vector<std::string> f;
  std::uint64_t escalation = 0;
  std::uint64_t oracle_count = 0;
  if (!reader.take_exact(kMagic) || !reader.take_fields("index", 1, f) ||
      !parse_u64(f[0], o.index) || !reader.take_fields("config", 11, f) ||
      !parse_u32(f[0], c.kernel_count) ||
      !parse_u32(f[1], c.host_function_count) ||
      !parse_f64(f[2], c.kernel_edge_probability) ||
      !parse_u64(f[3], c.min_edge_bytes) ||
      !parse_u64(f[4], c.max_edge_bytes) ||
      !parse_u64(f[5], c.min_work_units) ||
      !parse_u64(f[6], c.max_work_units) ||
      !parse_f64(f[7], c.duplicable_probability) ||
      !parse_f64(f[8], c.streaming_probability) ||
      !parse_u64(f[9], c.seed) || !parse_u32(f[10], c.board_count) ||
      !reader.take_sized("topology", c.board_topology) ||
      !reader.take_sized("tag", o.solution_tag) ||
      !reader.take_fields("times", 5, f) ||
      !parse_f64(f[0], o.baseline_seconds) ||
      !parse_f64(f[1], o.designed_seconds) ||
      !parse_f64(f[2], o.crossbar_seconds) ||
      !parse_f64(f[3], o.pipelined_makespan_seconds) ||
      !parse_f64(f[4], o.measured_designed_kernel_seconds) ||
      !reader.take_fields("flags", 5, f) || !parse_bool(f[0], o.simulated) ||
      !parse_u64(f[1], escalation) || escalation > 3 ||
      !parse_bool(f[2], o.band_violation) ||
      !parse_bool(f[3], o.quarantined) || !parse_bool(f[4], o.skipped) ||
      !reader.take_fields("multi", 4, f) ||
      !parse_f64(f[0], o.multi_total_seconds) ||
      !parse_u64(f[1], o.cut_bytes) || !parse_u64(f[2], o.inter_board_bytes) ||
      !parse_u64(f[3], o.board_link_reroutes) ||
      !reader.take_fields("oracles", 1, f) ||
      !parse_u64(f[0], oracle_count) || oracle_count > 1024) {
    return std::nullopt;
  }
  o.escalation = static_cast<tiers::EscalationReason>(escalation);
  for (std::uint64_t i = 0; i < oracle_count; ++i) {
    // "oracle <pass> <name length>", then the name bytes on their own line.
    OracleResult r;
    std::uint64_t name_len = 0;
    if (!reader.take_fields("oracle", 2, f) || !parse_bool(f[0], r.pass) ||
        !parse_u64(f[1], name_len) || !reader.take_line(r.oracle) ||
        r.oracle.size() != name_len ||
        !reader.take_sized("msg", r.message)) {
      return std::nullopt;
    }
    o.oracles.push_back(std::move(r));
  }
  std::string rest;
  if (!reader.take_sized("error", o.error) ||
      !reader.take_tagged("analytic", rest)) {
    return std::nullopt;
  }
  if (rest != "-") {
    std::uint64_t blob_len = 0;
    std::string blob;
    if (!parse_u64(rest, blob_len) || !reader.take_raw(blob_len, blob)) {
      return std::nullopt;
    }
    o.analytic = store::decode_estimate(blob);
    if (!o.analytic.has_value()) {
      return std::nullopt;
    }
  }
  // The next line is either the terminator or the optional searched
  // record (absent on pre-search ledgers).
  if (!reader.take_line(rest)) {
    return std::nullopt;
  }
  if (rest != "end") {
    const std::string tag = "searched-tag ";
    std::uint64_t tag_len = 0;
    search::SearchRecord s;
    if (rest.rfind(tag, 0) != 0 ||
        !parse_u64(std::string_view{rest}.substr(tag.size()), tag_len) ||
        !reader.take_raw(tag_len, s.solution_tag) ||
        !reader.take_fields("searched", 10, f) ||
        !parse_f64(f[0], s.analytic_seconds) ||
        !parse_f64(f[1], s.algorithm1_analytic_seconds) ||
        !parse_f64(f[2], s.gain) || !parse_u64(f[3], s.luts) ||
        !parse_u64(f[4], s.algorithm1_luts) ||
        !parse_u32(f[5], s.best_restart) || !parse_u64(f[6], s.proposed) ||
        !parse_u64(f[7], s.accepted) ||
        !parse_u64(f[8], s.rejected_illegal) ||
        !parse_u64(f[9], s.cache_hits) || !reader.take_exact("end")) {
      return std::nullopt;
    }
    o.searched = std::move(s);
  }
  if (!reader.at_end()) {
    return std::nullopt;
  }
  return o;
}

}  // namespace hybridic::dse

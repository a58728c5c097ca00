#include "store/codec.hpp"

#include <sstream>

#include "util/text.hpp"

namespace hybridic::store {

namespace {

using text::hexf;
using text::parse_bool;
using text::parse_f64;
using text::parse_u32;
using text::parse_u64;
using text::Reader;

constexpr const char* kProfileMagic = "profile 1";
constexpr const char* kEstimateMagic = "estimate 2";

}  // namespace

std::string encode_profile(const apps::ProfiledApp& app) {
  const prof::ProfileSnapshot snap = app.profiler->snapshot();
  std::ostringstream out;
  out << kProfileMagic << '\n';
  out << "name " << app.name.size() << '\n' << app.name << '\n';
  out << "verified " << (app.verified ? 1 : 0) << '\n';
  out << "note " << app.verification_note.size() << '\n'
      << app.verification_note << '\n';
  out << "env " << app.environment.base_infrastructure.luts << ' '
      << app.environment.base_infrastructure.regs << ' '
      << hexf(app.environment.power.static_watts) << ' '
      << hexf(app.environment.power.watts_per_kilo_lut) << ' '
      << hexf(app.environment.power.watts_per_kilo_reg) << '\n';
  out << "functions " << snap.functions.size() << '\n';
  for (const prof::ProfileSnapshot::Function& fn : snap.functions) {
    out << "fn " << fn.name.size() << '\n' << fn.name << '\n';
    out << fn.work_units << ' ' << fn.reads << ' ' << fn.writes << ' '
        << fn.calls << ' ' << fn.unique_bytes_read << ' '
        << fn.unique_bytes_written << '\n';
  }
  out << "edges " << snap.edges.size() << '\n';
  for (const prof::ProfileSnapshot::Edge& edge : snap.edges) {
    out << edge.producer << ' ' << edge.consumer << ' ' << edge.bytes << ' '
        << edge.unique_addresses << '\n';
  }
  out << "order " << snap.call_order.size() << '\n';
  for (const prof::FunctionId id : snap.call_order) {
    out << "o " << id << '\n';
  }
  out << "calibration " << app.calibration.size() << '\n';
  for (const sys::CalibrationEntry& cal : app.calibration) {
    out << "cal " << cal.function.size() << '\n' << cal.function << '\n';
    out << hexf(cal.host_cycles_per_work_unit) << ' '
        << hexf(cal.kernel_cycles_per_work_unit) << ' ' << cal.area_luts
        << ' ' << cal.area_regs << ' ' << (cal.is_kernel ? 1 : 0) << ' '
        << (cal.duplicable ? 1 : 0) << ' ' << (cal.streaming ? 1 : 0)
        << '\n';
  }
  return out.str();
}

std::shared_ptr<const apps::ProfiledApp> decode_profile(
    const std::string& payload) {
  Reader reader{payload};
  apps::ProfiledApp app;
  std::vector<std::string> f;
  if (!reader.take_exact(kProfileMagic) ||
      !reader.take_sized("name", app.name) ||
      !reader.take_fields("verified", 1, f) ||
      !parse_bool(f[0], app.verified) ||
      !reader.take_sized("note", app.verification_note) ||
      !reader.take_fields("env", 5, f) ||
      !parse_u64(f[0], app.environment.base_infrastructure.luts) ||
      !parse_u64(f[1], app.environment.base_infrastructure.regs) ||
      !parse_f64(f[2], app.environment.power.static_watts) ||
      !parse_f64(f[3], app.environment.power.watts_per_kilo_lut) ||
      !parse_f64(f[4], app.environment.power.watts_per_kilo_reg)) {
    return nullptr;
  }

  prof::ProfileSnapshot snap;
  std::uint64_t count = 0;
  if (!reader.take_fields("functions", 1, f) || !parse_u64(f[0], count) ||
      count > 1'000'000) {
    return nullptr;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    prof::ProfileSnapshot::Function fn;
    if (!reader.take_sized("fn", fn.name) || !reader.take_fields("", 6, f) ||
        !parse_u64(f[0], fn.work_units) || !parse_u64(f[1], fn.reads) ||
        !parse_u64(f[2], fn.writes) || !parse_u64(f[3], fn.calls) ||
        !parse_u64(f[4], fn.unique_bytes_read) ||
        !parse_u64(f[5], fn.unique_bytes_written)) {
      return nullptr;
    }
    snap.functions.push_back(std::move(fn));
  }
  if (!reader.take_fields("edges", 1, f) || !parse_u64(f[0], count) ||
      count > 100'000'000) {
    return nullptr;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    prof::ProfileSnapshot::Edge edge;
    std::uint64_t producer = 0;
    std::uint64_t consumer = 0;
    if (!reader.take_fields("", 4, f) || !parse_u64(f[0], producer) ||
        !parse_u64(f[1], consumer) || !parse_u64(f[2], edge.bytes) ||
        !parse_u64(f[3], edge.unique_addresses) ||
        producer >= snap.functions.size() ||
        consumer >= snap.functions.size()) {
      return nullptr;
    }
    edge.producer = static_cast<prof::FunctionId>(producer);
    edge.consumer = static_cast<prof::FunctionId>(consumer);
    snap.edges.push_back(edge);
  }
  if (!reader.take_fields("order", 1, f) || !parse_u64(f[0], count) ||
      count > snap.functions.size()) {
    return nullptr;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    if (!reader.take_fields("o", 1, f) || !parse_u64(f[0], id) ||
        id >= snap.functions.size()) {
      return nullptr;
    }
    snap.call_order.push_back(static_cast<prof::FunctionId>(id));
  }
  if (!reader.take_fields("calibration", 1, f) || !parse_u64(f[0], count) ||
      count > 1'000'000) {
    return nullptr;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    sys::CalibrationEntry cal;
    if (!reader.take_sized("cal", cal.function) ||
        !reader.take_fields("", 7, f) ||
        !parse_f64(f[0], cal.host_cycles_per_work_unit) ||
        !parse_f64(f[1], cal.kernel_cycles_per_work_unit) ||
        !parse_u32(f[2], cal.area_luts) || !parse_u32(f[3], cal.area_regs) ||
        !parse_bool(f[4], cal.is_kernel) ||
        !parse_bool(f[5], cal.duplicable) ||
        !parse_bool(f[6], cal.streaming)) {
      return nullptr;
    }
    app.calibration.push_back(std::move(cal));
  }
  if (!reader.at_end()) {
    return nullptr;  // Trailing garbage: treat as damage.
  }
  try {
    app.profiler = prof::QuadProfiler::from_snapshot(snap);
  } catch (...) {
    return nullptr;  // Inconsistent snapshot (e.g. duplicate names).
  }
  return std::make_shared<const apps::ProfiledApp>(std::move(app));
}

std::string encode_estimate(const tiers::TierEstimate& e) {
  std::ostringstream out;
  out << kEstimateMagic << '\n';
  out << "tag " << e.solution_tag.size() << '\n' << e.solution_tag << '\n';
  out << "theta " << hexf(e.theta_seconds_per_byte) << '\n';
  out << "baseline " << hexf(e.baseline_kernel_seconds) << '\n';
  out << "designed " << hexf(e.designed_kernel_seconds) << '\n';
  out << "band " << hexf(e.designed_lower_seconds) << ' '
      << hexf(e.designed_upper_seconds) << ' '
      << hexf(e.baseline_lower_seconds) << ' '
      << hexf(e.baseline_upper_seconds) << '\n';
  out << "noc " << e.noc_edges << ' ' << e.noc_volume_bytes << ' '
      << e.noc_hop_bytes << ' ' << e.noc_max_link_bytes << '\n';
  out << "noct " << hexf(e.noc_transfer_seconds) << '\n';
  out << "iboard " << e.inter_board_edges << ' ' << e.inter_board_bytes
      << ' ' << e.inter_board_hop_bytes << '\n';
  out << "iboardt " << hexf(e.inter_board_seconds) << '\n';
  out << "ckey " << e.congruence_key << '\n';
  return out.str();
}

std::optional<tiers::TierEstimate> decode_estimate(
    const std::string& payload) {
  Reader reader{payload};
  tiers::TierEstimate e;
  std::vector<std::string> f;
  if (!reader.take_exact(kEstimateMagic) ||
      !reader.take_sized("tag", e.solution_tag) ||
      !reader.take_fields("theta", 1, f) ||
      !parse_f64(f[0], e.theta_seconds_per_byte) ||
      !reader.take_fields("baseline", 1, f) ||
      !parse_f64(f[0], e.baseline_kernel_seconds) ||
      !reader.take_fields("designed", 1, f) ||
      !parse_f64(f[0], e.designed_kernel_seconds) ||
      !reader.take_fields("band", 4, f) ||
      !parse_f64(f[0], e.designed_lower_seconds) ||
      !parse_f64(f[1], e.designed_upper_seconds) ||
      !parse_f64(f[2], e.baseline_lower_seconds) ||
      !parse_f64(f[3], e.baseline_upper_seconds) ||
      !reader.take_fields("noc", 4, f) || !parse_u64(f[0], e.noc_edges) ||
      !parse_u64(f[1], e.noc_volume_bytes) ||
      !parse_u64(f[2], e.noc_hop_bytes) ||
      !parse_u64(f[3], e.noc_max_link_bytes) ||
      !reader.take_fields("noct", 1, f) ||
      !parse_f64(f[0], e.noc_transfer_seconds) ||
      !reader.take_fields("iboard", 3, f) ||
      !parse_u64(f[0], e.inter_board_edges) ||
      !parse_u64(f[1], e.inter_board_bytes) ||
      !parse_u64(f[2], e.inter_board_hop_bytes) ||
      !reader.take_fields("iboardt", 1, f) ||
      !parse_f64(f[0], e.inter_board_seconds) ||
      !reader.take_fields("ckey", 1, f) ||
      !parse_u64(f[0], e.congruence_key) || !reader.at_end()) {
    return std::nullopt;
  }
  return e;
}

}  // namespace hybridic::store

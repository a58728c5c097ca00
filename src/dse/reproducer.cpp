#include "dse/reproducer.hpp"

#include <fstream>
#include <sstream>

#include "dse/case_runner.hpp"
#include "util/error.hpp"
#include "util/text.hpp"

namespace hybridic::dse {
namespace {

/// Parse `key` out of `fields` with the typed view `as` and remove it;
/// ConfigError naming the field when it is absent or does not parse.
template <typename T>
void take(text::JsonObject& fields, const std::string& key,
          bool (text::JsonValue::*as)(T&) const, T& out) {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    throw ConfigError{"reproducer missing field: " + key};
  }
  if (!(it->second.*as)(out)) {
    throw ConfigError{"reproducer field " + key + " is malformed: '" +
                      it->second.text + "'"};
  }
  fields.erase(it);
}

}  // namespace

std::string to_json(const Reproducer& r) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": " << r.schema << ",\n";
  out << "  \"oracle\": \"" << text::json_escape(r.oracle) << "\",\n";
  out << "  \"expect\": \""
      << (r.expect == Expectation::kFail ? "fail" : "pass") << "\",\n";
  out << "  \"message\": \"" << text::json_escape(r.message) << "\",\n";
  out << "  \"config\": {\n";
  out << "    \"kernel_count\": " << r.config.kernel_count << ",\n";
  out << "    \"host_function_count\": " << r.config.host_function_count
      << ",\n";
  out << "    \"kernel_edge_probability\": "
      << text::decimal17(r.config.kernel_edge_probability) << ",\n";
  out << "    \"min_edge_bytes\": " << r.config.min_edge_bytes << ",\n";
  out << "    \"max_edge_bytes\": " << r.config.max_edge_bytes << ",\n";
  out << "    \"min_work_units\": " << r.config.min_work_units << ",\n";
  out << "    \"max_work_units\": " << r.config.max_work_units << ",\n";
  out << "    \"duplicable_probability\": "
      << text::decimal17(r.config.duplicable_probability) << ",\n";
  out << "    \"streaming_probability\": "
      << text::decimal17(r.config.streaming_probability) << ",\n";
  // Board fields only appear for multi-board configs, so every
  // single-board reproducer (including the checked-in fixtures) keeps its
  // historical byte-exact shape.
  if (r.config.board_count > 1) {
    out << "    \"board_count\": " << r.config.board_count << ",\n";
    out << "    \"board_topology\": \""
        << text::json_escape(r.config.board_topology) << "\",\n";
  }
  out << "    \"seed\": " << r.config.seed << "\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

Reproducer parse_reproducer(const std::string& json) {
  using text::JsonValue;
  text::FlatJson doc;
  std::string error;
  require(text::parse_flat_json(json, doc, error),
          "malformed reproducer JSON: " + error);

  Reproducer r;
  std::uint32_t schema = 0;
  take(doc.fields, "schema", &JsonValue::as_u32, schema);
  require(schema == 1, "unsupported reproducer schema version: " +
                           std::to_string(schema));
  take(doc.fields, "oracle", &JsonValue::as_string, r.oracle);
  std::string expect;
  take(doc.fields, "expect", &JsonValue::as_string, expect);
  require(expect == "pass" || expect == "fail",
          "reproducer expect must be \"pass\" or \"fail\", got \"" + expect +
              "\"");
  r.expect = expect == "fail" ? Expectation::kFail : Expectation::kPass;
  if (doc.fields.count("message") != 0) {
    take(doc.fields, "message", &JsonValue::as_string, r.message);
  }
  const auto config_it = doc.fields.find("config");
  require(config_it != doc.fields.end() &&
              config_it->second.kind == JsonValue::Kind::kObject,
          "reproducer missing object: config");

  text::JsonObject& config = doc.nested;
  apps::SyntheticConfig& c = r.config;
  take(config, "kernel_count", &JsonValue::as_u32, c.kernel_count);
  take(config, "host_function_count", &JsonValue::as_u32,
       c.host_function_count);
  take(config, "kernel_edge_probability", &JsonValue::as_f64,
       c.kernel_edge_probability);
  take(config, "min_edge_bytes", &JsonValue::as_u64, c.min_edge_bytes);
  take(config, "max_edge_bytes", &JsonValue::as_u64, c.max_edge_bytes);
  take(config, "min_work_units", &JsonValue::as_u64, c.min_work_units);
  take(config, "max_work_units", &JsonValue::as_u64, c.max_work_units);
  take(config, "duplicable_probability", &JsonValue::as_f64,
       c.duplicable_probability);
  take(config, "streaming_probability", &JsonValue::as_f64,
       c.streaming_probability);
  // Optional multi-board fields (absent in single-board reproducers).
  if (config.count("board_count") != 0) {
    take(config, "board_count", &JsonValue::as_u32, c.board_count);
  }
  if (config.count("board_topology") != 0) {
    take(config, "board_topology", &JsonValue::as_string, c.board_topology);
  }
  take(config, "seed", &JsonValue::as_u64, c.seed);
  if (!config.empty()) {
    throw ConfigError{"reproducer config has unknown field: " +
                      config.begin()->first};
  }
  apps::validate_synthetic_config(c);
  return r;
}

Reproducer load_reproducer(const std::string& path) {
  std::ifstream in{path};
  require(in.good(), "cannot read reproducer file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_reproducer(buffer.str());
}

OracleResult replay(const Reproducer& reproducer,
                    const OracleBounds& bounds) {
  const Oracle oracle = find_oracle(reproducer.oracle, bounds);
  const DesignCase c = run_design_case(reproducer.config);
  return oracle.check(c);
}

std::string reproducer_file_name(const Reproducer& reproducer) {
  return reproducer.oracle + "-seed" +
         std::to_string(reproducer.config.seed) + ".json";
}

}  // namespace hybridic::dse

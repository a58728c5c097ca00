#include "apps/synthetic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/interconnect_design.hpp"
#include "dse/campaign.hpp"
#include "prof/tracked.hpp"
#include "sys/experiment.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hybridic::apps {
namespace {

TEST(Synthetic, ProducesExpectedFunctionCount) {
  SyntheticConfig config;
  config.kernel_count = 5;
  const ProfiledApp app = make_synthetic_app(config);
  // source + 5 kernels + sink.
  EXPECT_EQ(app.graph().function_count(), 7U);
  EXPECT_EQ(app.schedule().specs.size(), 5U);
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticConfig config;
  config.seed = 42;
  const ProfiledApp a = make_synthetic_app(config);
  const ProfiledApp b = make_synthetic_app(config);
  const auto ea = a.graph().edges();
  const auto eb = b.graph().edges();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].bytes, eb[i].bytes);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticConfig a;
  a.seed = 1;
  SyntheticConfig b;
  b.seed = 2;
  const auto ea = make_synthetic_app(a).graph().edges();
  const auto eb = make_synthetic_app(b).graph().edges();
  bool differ = ea.size() != eb.size();
  for (std::size_t i = 0; !differ && i < ea.size(); ++i) {
    differ = ea[i].bytes != eb[i].bytes;
  }
  EXPECT_TRUE(differ);
}

TEST(Synthetic, GraphIsAcyclicByConstruction) {
  SyntheticConfig config;
  config.kernel_count = 8;
  config.seed = 5;
  const ProfiledApp app = make_synthetic_app(config);
  // Kernel i only feeds kernels j > i (and the sink).
  for (const prof::CommEdge& edge : app.graph().edges()) {
    if (edge.producer != edge.consumer) {
      EXPECT_LT(edge.producer, edge.consumer);
    }
  }
}

TEST(Synthetic, EveryKernelHasInput) {
  for (std::uint64_t seed : {1ULL, 9ULL, 77ULL}) {
    SyntheticConfig config;
    config.seed = seed;
    config.kernel_count = 6;
    const ProfiledApp app = make_synthetic_app(config);
    const prof::CommGraph& g = app.graph();
    for (std::uint32_t k = 0; k < 6; ++k) {
      const auto id = g.id_of("kernel" + std::to_string(k));
      EXPECT_GT(g.total_in(id).count(), 0U) << "seed " << seed;
      EXPECT_GT(g.total_out(id).count(), 0U) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Reference oracle: the generator as a live tracked run.
//
// make_synthetic_app writes its profile down from the generated dataflow
// instead of profiling it. The two functions below are that generator's
// tracked-run form: one draws the dataflow with one RNG call per payload
// byte, the other runs the dataflow through a live QuadProfiler. The
// declared profile must equal what the profiler observes, which also
// exercises the profiler's attribution on hundreds of graph shapes.
// ---------------------------------------------------------------------------

/// The dataflow drawn one payload byte at a time (no Rng::discard).
SyntheticDataflow reference_dataflow(const SyntheticConfig& cfg) {
  Rng rng{cfg.seed};
  const std::uint32_t k = cfg.kernel_count;
  SyntheticDataflow flow;
  flow.kernel_count = k;
  flow.edge_bytes.assign(k, std::vector<std::uint64_t>(k, 0));
  for (std::uint32_t i = 0; i < k; ++i) {
    for (std::uint32_t j = i + 1; j < k; ++j) {
      if (rng.chance(cfg.kernel_edge_probability)) {
        flow.edge_bytes[i][j] =
            rng.between(cfg.min_edge_bytes, cfg.max_edge_bytes);
      }
    }
  }
  flow.host_input.assign(k, 0);
  for (std::uint32_t j = 0; j < k; ++j) {
    bool has_kernel_input = false;
    for (std::uint32_t i = 0; i < j; ++i) {
      has_kernel_input |= flow.edge_bytes[i][j] != 0;
    }
    if (!has_kernel_input || rng.chance(0.5)) {
      flow.host_input[j] = rng.between(cfg.min_edge_bytes, cfg.max_edge_bytes);
    }
  }
  flow.output_size.assign(k, 0);
  flow.terminal.assign(k, true);
  for (std::uint32_t i = 0; i < k; ++i) {
    for (std::uint32_t j = i + 1; j < k; ++j) {
      flow.output_size[i] =
          std::max(flow.output_size[i], flow.edge_bytes[i][j]);
      if (flow.edge_bytes[i][j] != 0) {
        flow.terminal[i] = false;
      }
    }
    if (flow.terminal[i] || rng.chance(0.3)) {
      flow.output_size[i] =
          std::max(flow.output_size[i],
                   rng.between(cfg.min_edge_bytes, cfg.max_edge_bytes));
      flow.terminal[i] = true;
    }
    flow.output_size[i] = std::max<std::uint64_t>(flow.output_size[i], 64);
  }
  flow.source_size =
      *std::max_element(flow.host_input.begin(), flow.host_input.end()) + 64;
  for (std::uint64_t b = 0; b < flow.source_size; ++b) {
    rng.next();
  }
  for (std::uint32_t j = 0; j < k; ++j) {
    for (std::uint64_t b = 0; b < flow.output_size[j]; ++b) {
      rng.next();
    }
    flow.work.push_back(rng.between(cfg.min_work_units, cfg.max_work_units));
  }
  flow.calibration.push_back(
      sys::CalibrationEntry{"source", 4.0, 0.0, 0, 0, false, false, false});
  for (std::uint32_t i = 0; i < k; ++i) {
    sys::CalibrationEntry entry;
    entry.function = "kernel" + std::to_string(i);
    entry.host_cycles_per_work_unit = 8.0 + rng.uniform() * 10.0;
    entry.kernel_cycles_per_work_unit = 0.5 + rng.uniform() * 2.0;
    entry.area_luts = static_cast<std::uint32_t>(rng.between(800, 6000));
    entry.area_regs = static_cast<std::uint32_t>(rng.between(800, 8000));
    entry.is_kernel = true;
    entry.duplicable = rng.chance(cfg.duplicable_probability);
    entry.streaming = rng.chance(cfg.streaming_probability);
    flow.calibration.push_back(entry);
  }
  flow.calibration.push_back(
      sys::CalibrationEntry{"sink", 4.0, 0.0, 0, 0, false, false, false});
  return flow;
}

/// Run `flow` against tracked buffers and return what the profiler saw.
prof::ProfileSnapshot tracked_profile(const SyntheticDataflow& flow,
                                      prof::ProfileMode mode) {
  using prof::TrackedBuffer;
  prof::QuadProfiler q{mode};
  const std::uint32_t k = flow.kernel_count;
  const auto fn_source = q.declare("source");
  std::vector<prof::FunctionId> kernel_fn(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    kernel_fn[i] = q.declare("kernel" + std::to_string(i));
  }
  const auto fn_sink = q.declare("sink");

  TrackedBuffer<std::uint8_t> source_buf{q, "source_buf", flow.source_size};
  std::vector<std::unique_ptr<TrackedBuffer<std::uint8_t>>> out_bufs;
  for (std::uint32_t i = 0; i < k; ++i) {
    out_bufs.push_back(std::make_unique<TrackedBuffer<std::uint8_t>>(
        q, "out" + std::to_string(i), flow.output_size[i]));
  }
  std::vector<std::uint8_t> scratch(std::max(
      flow.source_size,
      *std::max_element(flow.output_size.begin(), flow.output_size.end())));
  {
    prof::ScopedFunction scope{q, fn_source};
    source_buf.write_range(0, flow.source_size, scratch.data());
    q.add_work(flow.source_size / 8);
  }
  for (std::uint32_t j = 0; j < k; ++j) {
    prof::ScopedFunction scope{q, kernel_fn[j]};
    if (flow.host_input[j] != 0) {
      source_buf.read_range(0, flow.host_input[j], scratch.data());
    }
    for (std::uint32_t i = 0; i < j; ++i) {
      if (flow.edge_bytes[i][j] != 0) {
        out_bufs[i]->read_range(0, flow.edge_bytes[i][j], scratch.data());
      }
    }
    out_bufs[j]->write_range(0, flow.output_size[j], scratch.data());
    q.add_work(flow.work[j]);
  }
  {
    prof::ScopedFunction scope{q, fn_sink};
    for (std::uint32_t i = 0; i < k; ++i) {
      if (flow.terminal[i]) {
        out_bufs[i]->read_range(0, flow.output_size[i], scratch.data());
      }
    }
    q.add_work(kSyntheticSinkWork);
  }
  q.finalize();
  return q.snapshot();
}

void expect_same_snapshot(const prof::ProfileSnapshot& declared,
                          const prof::ProfileSnapshot& observed) {
  ASSERT_EQ(declared.functions.size(), observed.functions.size());
  for (std::size_t f = 0; f < declared.functions.size(); ++f) {
    const auto& d = declared.functions[f];
    const auto& o = observed.functions[f];
    SCOPED_TRACE("function " + o.name);
    EXPECT_EQ(d.name, o.name);
    EXPECT_EQ(d.work_units, o.work_units);
    EXPECT_EQ(d.reads, o.reads);
    EXPECT_EQ(d.writes, o.writes);
    EXPECT_EQ(d.calls, o.calls);
    EXPECT_EQ(d.unique_bytes_read, o.unique_bytes_read);
    EXPECT_EQ(d.unique_bytes_written, o.unique_bytes_written);
  }
  ASSERT_EQ(declared.edges.size(), observed.edges.size());
  for (std::size_t e = 0; e < declared.edges.size(); ++e) {
    SCOPED_TRACE("edge " + std::to_string(e));
    EXPECT_EQ(declared.edges[e].producer, observed.edges[e].producer);
    EXPECT_EQ(declared.edges[e].consumer, observed.edges[e].consumer);
    EXPECT_EQ(declared.edges[e].bytes, observed.edges[e].bytes);
    EXPECT_EQ(declared.edges[e].unique_addresses,
              observed.edges[e].unique_addresses);
  }
  EXPECT_EQ(declared.call_order, observed.call_order);
}

void expect_same_dataflow(const SyntheticDataflow& actual,
                          const SyntheticDataflow& reference) {
  EXPECT_EQ(actual.kernel_count, reference.kernel_count);
  EXPECT_EQ(actual.edge_bytes, reference.edge_bytes);
  EXPECT_EQ(actual.host_input, reference.host_input);
  EXPECT_EQ(actual.source_size, reference.source_size);
  EXPECT_EQ(actual.output_size, reference.output_size);
  EXPECT_EQ(actual.terminal, reference.terminal);
  EXPECT_EQ(actual.work, reference.work);
  ASSERT_EQ(actual.calibration.size(), reference.calibration.size());
  for (std::size_t i = 0; i < actual.calibration.size(); ++i) {
    const sys::CalibrationEntry& a = actual.calibration[i];
    const sys::CalibrationEntry& r = reference.calibration[i];
    SCOPED_TRACE("calibration " + r.function);
    EXPECT_EQ(a.function, r.function);
    EXPECT_EQ(a.host_cycles_per_work_unit, r.host_cycles_per_work_unit);
    EXPECT_EQ(a.kernel_cycles_per_work_unit, r.kernel_cycles_per_work_unit);
    EXPECT_EQ(a.area_luts, r.area_luts);
    EXPECT_EQ(a.area_regs, r.area_regs);
    EXPECT_EQ(a.is_kernel, r.is_kernel);
    EXPECT_EQ(a.duplicable, r.duplicable);
    EXPECT_EQ(a.streaming, r.streaming);
  }
}

/// Production against the reference on one config: the dataflow (with its
/// RNG stream) and the declared profile against a live run in both modes.
void expect_matches_reference(const SyntheticConfig& config) {
  SCOPED_TRACE("seed " + std::to_string(config.seed) + " kernels " +
               std::to_string(config.kernel_count));
  const SyntheticDataflow flow = generate_synthetic_dataflow(config);
  expect_same_dataflow(flow, reference_dataflow(config));
  const prof::ProfileSnapshot declared = declared_profile(flow);
  expect_same_snapshot(declared,
                       tracked_profile(flow, prof::ProfileMode::kEager));
  expect_same_snapshot(declared,
                       tracked_profile(flow, prof::ProfileMode::kDeferred));
  // make_synthetic_app serves exactly the declared profile.
  const ProfiledApp app = make_synthetic_app(config);
  EXPECT_TRUE(app.profiler->restored());
  expect_same_snapshot(declared, app.profiler->snapshot());
}

class SyntheticReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyntheticReference, DeclaredProfileMatchesTrackedRunOnSampledConfigs) {
  for (std::uint64_t index = 0; index < 200; ++index) {
    expect_matches_reference(
        dse::sample_config(dse::SweepSpace{}, GetParam(), index));
    if (HasFailure()) {
      return;  // One failing config is enough to read.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CampaignSeeds, SyntheticReference,
                         ::testing::Values(1, 1009));

TEST(SyntheticReference, DeclaredProfileMatchesTrackedRunOnEdgeConfigs) {
  std::vector<SyntheticConfig> configs;
  SyntheticConfig single;
  single.kernel_count = 1;
  configs.push_back(single);
  SyntheticConfig no_edges;
  no_edges.kernel_edge_probability = 0.0;
  configs.push_back(no_edges);
  SyntheticConfig all_edges;
  all_edges.kernel_count = 9;
  all_edges.kernel_edge_probability = 1.0;
  configs.push_back(all_edges);
  SyntheticConfig one_byte;
  one_byte.min_edge_bytes = 1;
  one_byte.max_edge_bytes = 1;
  configs.push_back(one_byte);
  SyntheticConfig large;
  large.min_edge_bytes = 128 * 1024;
  large.max_edge_bytes = 128 * 1024;
  large.kernel_edge_probability = 0.6;
  configs.push_back(large);
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (SyntheticConfig config : configs) {
      config.seed = seed;
      expect_matches_reference(config);
    }
  }
}

// ---------------------------------------------------------------------------
// Config validation: every rejection names the offending field.
// ---------------------------------------------------------------------------

/// Runs both entry points (the standalone validator and the generator)
/// and checks the ConfigError message names the field.
void expect_rejected(const SyntheticConfig& config, const char* field) {
  try {
    validate_synthetic_config(config);
    FAIL() << "expected rejection of " << field;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)make_synthetic_app(config), ConfigError);
}

TEST(SyntheticConfigValidation, AcceptsTheDefaultConfig) {
  EXPECT_NO_THROW(validate_synthetic_config(SyntheticConfig{}));
}

TEST(SyntheticConfigValidation, RejectsZeroKernels) {
  SyntheticConfig config;
  config.kernel_count = 0;
  expect_rejected(config, "kernel_count");
}

TEST(SyntheticConfigValidation, RejectsZeroMinEdgeBytes) {
  SyntheticConfig config;
  config.min_edge_bytes = 0;
  expect_rejected(config, "min_edge_bytes");
}

TEST(SyntheticConfigValidation, RejectsInvertedEdgeByteRange) {
  SyntheticConfig config;
  config.min_edge_bytes = 4096;
  config.max_edge_bytes = 1024;
  expect_rejected(config, "min_edge_bytes");
}

TEST(SyntheticConfigValidation, RejectsInvertedWorkUnitRange) {
  SyntheticConfig config;
  config.min_work_units = 100;
  config.max_work_units = 10;
  expect_rejected(config, "min_work_units");
}

TEST(SyntheticConfigValidation, RejectsOutOfRangeProbabilities) {
  SyntheticConfig config;
  config.kernel_edge_probability = 1.5;
  expect_rejected(config, "kernel_edge_probability");

  config = SyntheticConfig{};
  config.duplicable_probability = -0.1;
  expect_rejected(config, "duplicable_probability");

  config = SyntheticConfig{};
  config.streaming_probability = 2.0;
  expect_rejected(config, "streaming_probability");
}

/// Full-pipeline property sweep over synthetic shapes.
class SyntheticPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyntheticPipeline, ExperimentCompletesAndOrdersHold) {
  SyntheticConfig config;
  config.seed = GetParam();
  config.kernel_count = 4 + GetParam() % 4;
  const ProfiledApp app = make_synthetic_app(config);
  const sys::AppSchedule schedule = app.schedule();
  const sys::AppExperiment exp = sys::run_experiment(
      schedule, sys::PlatformConfig{}, app.environment);

  EXPECT_GT(exp.sw.total_seconds, 0.0);
  EXPECT_GT(exp.baseline.total_seconds, 0.0);
  EXPECT_LE(exp.proposed.total_seconds,
            exp.baseline.total_seconds * 1.02);
  EXPECT_LE(exp.proposed_resources.luts, exp.noc_only_resources.luts);
  EXPECT_LT(exp.baseline_resources.luts, exp.proposed_resources.luts + 1);
  EXPECT_GT(exp.proposed_energy_joules, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticPipeline,
                         ::testing::Values(2, 4, 6, 11, 19, 29, 41));

}  // namespace
}  // namespace hybridic::apps

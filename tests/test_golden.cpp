// Golden regression tests: the default-config applications are fully
// deterministic, so their profiles and designs are pinned to exact values.
// If an intentional change shifts these, update them consciously — they
// are the repository's reproduction anchors (see EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "apps/app.hpp"
#include "apps/jpeg.hpp"
#include "dse/campaign.hpp"
#include "store/codec.hpp"
#include "sys/experiment.hpp"

namespace hybridic {
namespace {

TEST(Golden, JpegDefaultProfileEdges) {
  const apps::ProfiledApp app = apps::run_jpeg(apps::JpegConfig{});
  const prof::CommGraph& g = app.graph();
  const auto bytes = [&g](const char* p, const char* c) {
    return g.bytes_between(g.id_of(p), g.id_of(c)).count();
  };
  EXPECT_EQ(bytes("read_bitstream", "huff_dc_dec"), 109U);
  EXPECT_EQ(bytes("read_bitstream", "huff_ac_dec"), 994U);
  EXPECT_EQ(bytes("read_bitstream", "j_rev_dct"), 576U);
  EXPECT_EQ(bytes("huff_dc_dec", "huff_ac_dec"), 576U);
  EXPECT_EQ(bytes("huff_ac_dec", "dquantz_lum"), 36864U);
  EXPECT_EQ(bytes("dquantz_lum", "j_rev_dct"), 36864U);
  EXPECT_EQ(bytes("j_rev_dct", "write_output"), 9216U);
}

TEST(Golden, PaperDesignShapes) {
  struct Expectation {
    const char* app;
    const char* solution;
    std::size_t instances;
    std::size_t shared_pairs;
    std::uint32_t routers;  // 0 = no NoC
  };
  const Expectation expectations[] = {
      {"canny", "NoC, SM, P", 4, 2, 2},
      {"jpeg", "NoC, SM, P", 5, 1, 6},
      {"klt", "SM", 3, 1, 0},
      {"fluid", "NoC", 3, 0, 6},
  };
  const sys::PlatformConfig platform;
  for (const Expectation& e : expectations) {
    const apps::ProfiledApp app = apps::run_paper_app(e.app);
    const sys::AppSchedule schedule = app.schedule();
    const core::DesignResult design = core::design_interconnect(
        sys::make_design_input(schedule, platform));
    EXPECT_EQ(design.solution_tag(), e.solution) << e.app;
    EXPECT_EQ(design.instances.size(), e.instances) << e.app;
    EXPECT_EQ(design.shared_pairs.size(), e.shared_pairs) << e.app;
    EXPECT_EQ(design.uses_noc() ? design.noc->router_count() : 0,
              e.routers)
        << e.app;
  }
}

TEST(Golden, PaperSpeedupAnchors) {
  // Wide tolerance: these pin the *shape* (see EXPERIMENTS.md), and must
  // not silently drift.
  const apps::ProfiledApp jpeg = apps::run_paper_app("jpeg");
  const sys::AppExperiment exp = sys::run_experiment(
      jpeg.schedule(), sys::PlatformConfig{}, jpeg.environment);
  EXPECT_NEAR(exp.baseline_app_speedup_vs_sw(), 0.82, 0.05);
  EXPECT_NEAR(exp.baseline_comm_comp_ratio(), 3.63, 0.2);
  EXPECT_NEAR(exp.proposed_app_speedup_vs_baseline(), 3.8, 0.5);
  EXPECT_NEAR(exp.energy_ratio_vs_baseline(), 0.30, 0.06);
}

TEST(Golden, CannySharedPairStyles) {
  const apps::ProfiledApp app = apps::run_paper_app("canny");
  const sys::AppSchedule schedule = app.schedule();
  const core::DesignResult design = core::design_interconnect(
      sys::make_design_input(schedule, sys::PlatformConfig{}));
  ASSERT_EQ(design.shared_pairs.size(), 2U);
  // (gaussian_blur -> sobel_gradient) shares directly (sobel never talks
  // to the host); (non_max_suppression -> hysteresis) needs the crossbar.
  bool direct_seen = false;
  bool crossbar_seen = false;
  for (const core::SharedMemoryPairing& pair : design.shared_pairs) {
    const std::string producer =
        design.instances[pair.producer_instance].name;
    if (producer == "gaussian_blur") {
      EXPECT_EQ(pair.style, mem::SharingStyle::kDirect);
      direct_seen = true;
    }
    if (producer == "non_max_suppression") {
      EXPECT_EQ(pair.style, mem::SharingStyle::kCrossbar);
      crossbar_seen = true;
    }
  }
  EXPECT_TRUE(direct_seen);
  EXPECT_TRUE(crossbar_seen);
}

TEST(Golden, ScheduleFollowsCallOrderNotDeclarationOrder) {
  // A function declared first but called second must come second in the
  // derived schedule.
  prof::QuadProfiler q;
  const auto late = q.declare("called_second");
  const auto early = q.declare("called_first");
  q.enter(early);
  q.add_work(10);
  q.leave();
  q.enter(late);
  q.add_work(10);
  q.leave();
  const sys::AppSchedule schedule =
      sys::build_schedule("order", q.graph(), {}, q.call_order());
  ASSERT_EQ(schedule.steps.size(), 2U);
  EXPECT_EQ(schedule.steps[0].name, "called_first");
  EXPECT_EQ(schedule.steps[1].name, "called_second");
  // Never-called functions append at the end.
  prof::QuadProfiler q2;
  (void)q2.declare("never_called");
  const auto only = q2.declare("only");
  q2.enter(only);
  q2.leave();
  const sys::AppSchedule s2 =
      sys::build_schedule("order2", q2.graph(), {}, q2.call_order());
  ASSERT_EQ(s2.steps.size(), 2U);
  EXPECT_EQ(s2.steps[0].name, "only");
  EXPECT_EQ(s2.steps[1].name, "never_called");
}

TEST(Golden, CannyDefaultProfileVolumes) {
  const apps::ProfiledApp app = apps::run_paper_app("canny");
  const prof::CommGraph& g = app.graph();
  const auto uma = [&g](const char* p, const char* c) {
    for (const prof::CommEdge& edge : g.edges()) {
      if (edge.producer == g.id_of(p) && edge.consumer == g.id_of(c)) {
        return edge.unique_addresses;
      }
    }
    return std::uint64_t{0};
  };
  // 160x120 frame: float image 76,800 unique bytes into the blur; the
  // sobel stage emits magnitude (float) + direction (byte) = 93,220
  // unique bytes consumed by non-max suppression (border excluded).
  EXPECT_EQ(uma("load_image", "gaussian_blur"), 76800U);
  EXPECT_EQ(uma("gaussian_blur", "sobel_gradient"), 76800U);
  EXPECT_EQ(uma("sobel_gradient", "non_max_suppression"), 93220U);
  EXPECT_EQ(uma("hysteresis", "store_edges"), 19200U);
}

TEST(Golden, FluidProfileIsSymmetricallyCoupled) {
  const apps::ProfiledApp app = apps::run_paper_app("fluid");
  const prof::CommGraph& g = app.graph();
  // 66x66 padded float grids: all three kernels exchange full fields.
  const auto volume = [&g](const char* p, const char* c) {
    return core::edge_volume(prof::CommEdge{
        g.id_of(p), g.id_of(c), g.bytes_between(g.id_of(p), g.id_of(c)),
        0});
  };
  (void)volume;
  const std::uint64_t field = 66 * 66 * 4;
  for (const prof::CommEdge& edge : g.edges()) {
    if (edge.producer == edge.consumer) {
      continue;
    }
    // Every kernel-to-kernel edge moves at least one half-field and at
    // most three full fields of unique data.
    const bool kernel_edge =
        g.function(edge.producer).name != "init_fields" &&
        g.function(edge.consumer).name != "read_state";
    if (kernel_edge) {
      EXPECT_GE(edge.unique_addresses, field / 2)
          << g.function(edge.producer).name << "->"
          << g.function(edge.consumer).name;
      // At most the velocity pair + density + pressure/divergence
      // scratch: four full fields of unique data.
      EXPECT_LE(edge.unique_addresses, 4 * field)
          << g.function(edge.producer).name << "->"
          << g.function(edge.consumer).name;
    }
  }
}

TEST(Golden, DuplicateCallOrderRejected) {
  prof::QuadProfiler q;
  const auto f = q.declare("f");
  EXPECT_THROW((void)sys::build_schedule("bad", q.graph(), {}, {f, f}),
               ConfigError);
  EXPECT_THROW((void)sys::build_schedule("bad", q.graph(), {}, {7}),
               ConfigError);
}

// ---------------------------------------------------------------------------
// Byte-pinned fixtures. Each family has its own regeneration variable:
//   HYBRIDIC_UPDATE_PROFILE_FIXTURES=1 ctest -R Golden   (fixtures/profiles)
//   HYBRIDIC_UPDATE_SEARCH_FIXTURES=1 ctest -R Golden    (fixtures/search)
// Review the diff like any other golden update.

void expect_matches_fixture(const std::string& text, const std::string& dir,
                            const std::string& name, const char* update_var) {
  const std::string path =
      std::string{HYBRIDIC_TESTS_SOURCE_DIR} + "/fixtures/" + dir + "/" + name;
  const char* flag = std::getenv(update_var);
  if (flag != nullptr && std::string{flag} == "1") {
    std::ofstream out{path, std::ios::binary};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
    return;
  }
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good()) << path << " missing; regenerate with "
                         << update_var << "=1";
  const std::string on_disk{std::istreambuf_iterator<char>{in},
                            std::istreambuf_iterator<char>{}};
  EXPECT_EQ(on_disk, text) << name << " drifted from the checked-in fixture";
}

// The full encoded profile of each paper app — every edge's bytes and UMA
// count, every function's counters and unique footprints, the observed
// call order and the calibration — so any change to attribution shows up
// as a byte diff, not only on the few edges pinned above.
TEST(Golden, PaperAppProfilesMatchFixtures) {
  for (const std::string& name : apps::paper_app_names()) {
    const apps::ProfiledApp app = apps::run_paper_app(name);
    expect_matches_fixture(store::encode_profile(app), "profiles",
                           name + ".txt", "HYBRIDIC_UPDATE_PROFILE_FIXTURES");
  }
}

// Search-campaign output: the searched_* CSV columns and the
// "Algorithm 1 vs searched" REPORT section are a scripting contract, so
// a tiny deterministic campaign is pinned byte-for-byte.
TEST(Golden, SearchCampaignCsvColumnsAndReportSection) {
  dse::CampaignOptions options;
  options.count = 4;
  options.campaign_seed = 11;
  options.threads = 1;
  options.tier = tiers::TierMode::kAnalytic;
  options.space.max_kernels = 4;
  options.max_shrinks = 0;
  options.search = true;
  options.search_restarts = 2;
  options.search_iterations = 16;
  const dse::CampaignResult result = dse::run_campaign(options);

  const std::string csv = dse::campaign_csv(result);
  EXPECT_NE(csv.find("searched_solution,searched_analytic_s"),
            std::string::npos);
  expect_matches_fixture(csv, "search", "campaign_search.csv",
                         "HYBRIDIC_UPDATE_SEARCH_FIXTURES");

  const std::string markdown = dse::campaign_markdown(result, options);
  const std::size_t at =
      markdown.find("### Algorithm 1 vs searched (`--search=anneal`)");
  ASSERT_NE(at, std::string::npos);
  std::size_t end = markdown.find("\n### ", at + 1);
  if (end == std::string::npos) {
    end = markdown.size();
  }
  expect_matches_fixture(markdown.substr(at, end - at), "search",
                         "campaign_search_section.md",
                         "HYBRIDIC_UPDATE_SEARCH_FIXTURES");

  // The same sweep without --search must keep the original schema: no
  // searched columns, no Pareto section.
  options.search = false;
  const dse::CampaignResult plain = dse::run_campaign(options);
  EXPECT_EQ(dse::campaign_csv(plain).find("searched_"), std::string::npos);
  EXPECT_EQ(dse::campaign_markdown(plain, options)
                .find("Algorithm 1 vs searched"),
            std::string::npos);
}

}  // namespace
}  // namespace hybridic

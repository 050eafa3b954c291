// Golden-trace regression test: the committed fixture
// tests/golden/spec_grid_seed.csv locks the simulation content of the
// original seven mechanisms (baseline + the paper's six) at W1S1 (weeks=1,
// seed=1) and W2S2 (weeks=2, seeds 2 and 3), wall-clock columns stripped.
// Any PR that silently changes simulation behavior — scheduler decisions,
// trace synthesis, metric accounting — fails here with a per-line diff.
//
// Intentional changes refresh the fixture with one command:
//
//   HS_UPDATE_GOLDEN=1 ./build/exp_golden_grid_test
//
// then commit the updated CSV alongside the change that moved it.
//
// A second fixture, tests/golden/policy_grid_aimix.csv, locks every
// registered mechanism under all six ordering policies on the AI-swarm
// `aimix` preset (1 week, seed 1) plus one static-partition cell per
// policy, so waiting-queue ordering — including the partition-only path —
// is pinned for every policy, not only FCFS. It refreshes with the same
// HS_UPDATE_GOLDEN=1 command.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "core/mechanism.h"
#include "exp/runner.h"
#include "util/file_util.h"
#include "util/thread_pool.h"

#ifndef HS_SOURCE_DIR
#error "exp_golden_grid_test requires HS_SOURCE_DIR (see CMakeLists.txt)"
#endif

namespace hs {
namespace {

constexpr const char* kOriginalMechanisms[] = {
    "baseline", "N&PAA", "N&SPAA", "CUA&PAA", "CUA&SPAA", "CUP&PAA", "CUP&SPAA",
};

std::string GoldenPath() {
  return std::string(HS_SOURCE_DIR) + "/tests/golden/spec_grid_seed.csv";
}

/// The fixture's grid: mechanism-major; per mechanism one W1S1 cell and a
/// two-seed W2S2 sweep, FCFS/W5 at paper scale (the Table 2 defaults).
std::vector<SimSpec> GoldenSpecs() {
  std::vector<SimSpec> specs;
  for (const char* mechanism : kOriginalMechanisms) {
    SimSpec base = SimSpec::Parse(std::string(mechanism) + "/FCFS/W5");
    base.weeks = 1;
    base.seed = 1;
    specs.push_back(base);
    base.weeks = 2;
    for (const SimSpec& seeded : SeedSweep(base, 2, 2)) specs.push_back(seeded);
  }
  return specs;
}

std::string GenerateGoldenCsv() {
  const std::vector<SimSpec> specs = GoldenSpecs();
  std::ostringstream out;
  CsvResultSink csv(out, {.include_wallclock = false});
  MergingResultSink merged(csv, specs.size());
  ThreadPool pool;
  ExperimentRunner runner(pool);
  runner.Run(specs, &merged);
  merged.Finish();
  return out.str();
}

TEST(GoldenGridTest, MatchesCommittedFixture) {
  const std::string generated = GenerateGoldenCsv();

  if (std::getenv("HS_UPDATE_GOLDEN") != nullptr) {
    WriteTextFile(GoldenPath(), generated);
    std::printf("refreshed %s (%zu bytes)\n", GoldenPath().c_str(), generated.size());
  }

  std::string golden;
  try {
    golden = ReadTextFile(GoldenPath());
  } catch (const std::exception& e) {
    FAIL() << e.what()
           << "\n(missing fixture? regenerate with HS_UPDATE_GOLDEN=1 " __FILE__ ")";
  }

  if (generated == golden) return;  // byte-identical, done

  // Pinpoint the drift: first differing line, named by spec.
  const auto got = SplitLines(generated);
  const auto want = SplitLines(golden);
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    ASSERT_EQ(got[i], want[i])
        << "first drift at line " << (i + 1) << " of " << GoldenPath()
        << "\nSimulation content changed. If intentional, refresh with:\n"
           "  HS_UPDATE_GOLDEN=1 ./exp_golden_grid_test\nand commit the fixture.";
  }
  FAIL() << "generated CSV and fixture differ in length";
}

TEST(GoldenGridTest, FixtureShapeIsLocked) {
  const std::string golden = ReadTextFile(GoldenPath());
  const auto lines = SplitLines(golden);
  // Header + 7 mechanisms x (1 + 2) rows.
  ASSERT_EQ(lines.size(), 22u);
  EXPECT_EQ(lines[0].rfind("spec,trace,mechanism,", 0), 0u) << lines[0];
  // Wall-clock columns must never leak into the fixture.
  EXPECT_EQ(lines[0].find("decision_avg_us"), std::string::npos);
  EXPECT_EQ(lines[0].find("decision_max_us"), std::string::npos);
  EXPECT_NE(lines[0].find("decisions"), std::string::npos);
  for (const char* mechanism : kOriginalMechanisms) {
    EXPECT_NE(golden.find(mechanism), std::string::npos) << mechanism;
  }
}

constexpr const char* kPolicies[] = {
    "FCFS", "SJF", "LJF", "SmallestFirst", "LargestFirst", "WFP3",
};

std::string PolicyGridPath() {
  return std::string(HS_SOURCE_DIR) + "/tests/golden/policy_grid_aimix.csv";
}

/// Policy-major: per policy every registered mechanism on `aimix`, then a
/// `partition=256` cell (the dedicated-cluster comparator, whose on-demand
/// jobs wait as partition-only queue entries).
std::vector<SimSpec> PolicyGridSpecs() {
  std::vector<SimSpec> specs;
  for (const char* policy : kPolicies) {
    for (const std::string& mechanism : MechanismNames()) {
      specs.push_back(SimSpec::Parse(mechanism + "/" + policy + "/W5/preset=aimix"));
    }
    specs.push_back(
        SimSpec::Parse(std::string("baseline/") + policy + "/W5/preset=aimix/partition=256"));
  }
  return specs;
}

std::string GenerateCsv(const std::vector<SimSpec>& specs) {
  std::ostringstream out;
  CsvResultSink csv(out, {.include_wallclock = false});
  MergingResultSink merged(csv, specs.size());
  ThreadPool pool;
  ExperimentRunner runner(pool);
  runner.Run(specs, &merged);
  merged.Finish();
  return out.str();
}

TEST(GoldenGridTest, PolicyGridMatchesCommittedFixture) {
  const std::string generated = GenerateCsv(PolicyGridSpecs());
  if (std::getenv("HS_UPDATE_GOLDEN") != nullptr) {
    WriteTextFile(PolicyGridPath(), generated);
    std::printf("refreshed %s (%zu bytes)\n", PolicyGridPath().c_str(), generated.size());
  }
  const std::string golden = ReadTextFile(PolicyGridPath());
  if (generated == golden) return;
  const auto got = SplitLines(generated);
  const auto want = SplitLines(golden);
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    ASSERT_EQ(got[i], want[i]) << "first drift at line " << (i + 1) << " of "
                               << PolicyGridPath()
                               << "\nIf intentional, refresh with HS_UPDATE_GOLDEN=1.";
  }
  FAIL() << "generated CSV and fixture differ in length";
}

TEST(GoldenGridTest, PolicyGridShapeIsLocked) {
  const std::string golden = ReadTextFile(PolicyGridPath());
  const auto lines = SplitLines(golden);
  const std::size_t mechanisms = MechanismNames().size();
  // Header + 6 policies x (every mechanism + one partition cell).
  ASSERT_EQ(lines.size(), 1 + 6 * (mechanisms + 1));
  EXPECT_EQ(lines[0].rfind("spec,trace,mechanism,", 0), 0u) << lines[0];
  EXPECT_EQ(lines[0].find("decision_avg_us"), std::string::npos);
  for (const char* policy : kPolicies) {
    EXPECT_NE(golden.find(std::string("baseline/") + policy + "/W5/preset=aimix/partition=256"),
              std::string::npos)
        << policy;
  }
  for (const std::string& mechanism : MechanismNames()) {
    EXPECT_NE(golden.find(mechanism + "/WFP3/W5/preset=aimix"), std::string::npos) << mechanism;
  }
}

}  // namespace
}  // namespace hs

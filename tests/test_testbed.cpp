// Testbed harness itself: the LoC counter feeding Table 3, traffic
// generation/delivery statistics, and SimWorld conveniences.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "testbed/loc_counter.hpp"
#include "testbed/traffic.hpp"
#include "testbed/world.hpp"

namespace mk::testbed {
namespace {

class LocCounterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/loc_sample.cpp";
    std::ofstream out(path_);
    out << "// a comment line\n"
        << "\n"
        << "#include <x>\n"          // 1
        << "int main() {\n"          // 2
        << "  /* block\n"
        << "     comment */\n"
        << "  int a = 1;  // tail\n" // 3
        << "  /* inline */ int b;\n" // (comment-leading line: skipped)
        << "  return a;\n"           // 4
        << "}\n";                    // 5
  }
  std::string path_;
};

TEST_F(LocCounterTest, SkipsBlanksAndComments) {
  // 5 code lines; the '/* inline */ int b;' line opens with a comment and is
  // conservatively not counted (documented behaviour of the counter).
  EXPECT_EQ(count_loc(path_), 5u);
}

TEST_F(LocCounterTest, UnreadableFileCountsZero) {
  EXPECT_EQ(count_loc("/nonexistent/file.cpp"), 0u);
}

TEST(LocCounter, ManifestFilesAllExistAndAreNonTrivial) {
  std::string root = repo_root();
  auto entries = manifest();
  count_manifest(entries, root);
  for (const auto& e : entries) {
    EXPECT_GT(e.loc, 0u) << "component '" << e.name
                         << "' counted zero lines — manifest path stale?";
  }
}

TEST(LocCounter, SourceTreeTotalCoversTheManifest) {
  std::string root = repo_root();
  auto entries = manifest();
  count_manifest(entries, root);
  std::size_t manifest_loc = 0;
  for (const auto& e : entries) manifest_loc += e.loc;
  EXPECT_GT(count_tree_loc(root + "/src"), manifest_loc);
  EXPECT_EQ(count_tree_loc(root + "/no-such-dir"), 0u);
  // Raw lines include the blanks and comments the LoC total skips.
  EXPECT_GT(count_tree_lines(root + "/src"), count_tree_loc(root + "/src"));
  EXPECT_EQ(count_tree_lines(root + "/no-such-dir"), 0u);
}

TEST(LocCounter, EveryProtocolShowsMajorityReuse) {
  std::string root = repo_root();
  auto entries = manifest();
  count_manifest(entries, root);
  for (const char* proto : {"OLSR", "DYMO", "AODV"}) {
    ReuseSummary s = summarize(entries, proto);
    EXPECT_GT(s.reused_fraction(), 0.5) << proto;
    EXPECT_GE(s.reused_components, 2 * s.specific_components) << proto;
  }
}

TEST(Traffic, CbrFlowDeliversAtConfiguredRate) {
  SimWorld world(2);
  world.full_mesh();
  world.node(0).kernel_table().set_route(
      net::RouteEntry{world.addr(1), world.addr(1), 1, {}});

  CbrFlow flow(world.node(0), world.addr(1), msec(100), 256);
  DeliverySink sink(world.node(1));
  flow.start();
  world.run_for(sec(2));
  flow.stop();
  world.run_for(sec(1));

  EXPECT_EQ(flow.sent(), 20u);
  EXPECT_EQ(sink.received(), 20u);
  EXPECT_GT(sink.latencies_ms().mean(), 0.0);
  EXPECT_LT(sink.latencies_ms().max(), 10.0);  // one hop, light load
}

TEST(Traffic, SinkMeasuresMultiHopLatencyMonotonicity) {
  SimWorld world(4);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  DeliverySink near_sink(world.node(1));
  DeliverySink far_sink(world.node(3));
  for (int i = 0; i < 10; ++i) {
    world.node(0).forwarding().send(world.addr(1), 128);
    world.node(0).forwarding().send(world.addr(3), 128);
    world.run_for(msec(200));
  }
  ASSERT_EQ(near_sink.received(), 10u);
  ASSERT_EQ(far_sink.received(), 10u);
  EXPECT_GT(far_sink.latencies_ms().mean(), near_sink.latencies_ms().mean());
}

TEST(World, AddrsMatchNodeAddresses) {
  SimWorld world(3);
  auto addrs = world.addrs();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(addrs[i], world.node(i).addr());
    EXPECT_EQ(addrs[i], world.addr(i));
  }
}

TEST(World, RunUntilRoutedTimesOutCleanly) {
  SimWorld world(3);  // no links, no protocols: can never converge
  auto result = world.run_until_routed(sec(2));
  EXPECT_FALSE(result.has_value());
}

TEST(World, KitsAreLazyAndSticky) {
  SimWorld world(2);
  EXPECT_FALSE(world.has_kit(0));
  auto& kit = world.kit(0);
  EXPECT_TRUE(world.has_kit(0));
  EXPECT_EQ(&world.kit(0), &kit);
  EXPECT_FALSE(world.has_kit(1));
}

}  // namespace
}  // namespace mk::testbed

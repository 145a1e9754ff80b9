// Link-quality context sensing and the gossip-flooding DYMO variant.
#include <gtest/gtest.h>

#include "protocols/dymo/gossip.hpp"
#include "testbed/world.hpp"

namespace mk {
namespace {

TEST(LinkQuality, HealthyLinkConvergesToOne) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("olsr");  // steady HELLO traffic
  world.kit(0).system().ensure_link_quality(sec(2));
  world.run_for(sec(20));
  EXPECT_GT(world.kit(0).system().link_quality(world.addr(1)), 0.9);
}

TEST(LinkQuality, DecaysAfterSilence) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("olsr");
  world.kit(0).system().ensure_link_quality(sec(2));
  world.run_for(sec(20));
  ASSERT_GT(world.kit(0).system().link_quality(world.addr(1)), 0.9);

  // The neighbour's radio dies, but the (stale) adjacency remains, so the
  // sensor keeps scoring the silent link down.
  world.node(1).device().set_up(false);
  world.run_for(sec(12));
  EXPECT_LT(world.kit(0).system().link_quality(world.addr(1)), 0.35);
}

TEST(LinkQuality, EventsReachTheConcentrator) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("olsr");
  world.kit(0).system().ensure_link_quality(sec(1));

  std::map<net::Addr, double> latest;
  world.kit(0).manager().subscribe(
      ev::types::LINK_QUALITY, [&](const ev::Event& e) {
        latest[static_cast<net::Addr>(e.attr(ev::IntAttr::neighbor))] =
            e.attr(ev::RealAttr::quality);
      });
  world.run_for(sec(10));
  ASSERT_TRUE(latest.count(world.addr(1)) > 0);
  EXPECT_GT(latest[world.addr(1)], 0.5);
}

TEST(Gossip, ApplyAndRemoveAreCleanAndIdempotent) {
  testbed::SimWorld world(2);
  world.full_mesh();
  world.deploy_all("dymo");
  auto& kit = world.kit(0);
  EXPECT_FALSE(proto::is_dymo_gossip_flooding(kit));
  proto::apply_dymo_gossip_flooding(kit);
  proto::apply_dymo_gossip_flooding(kit);  // idempotent
  EXPECT_TRUE(proto::is_dymo_gossip_flooding(kit));
  proto::remove_dymo_gossip_flooding(kit);
  EXPECT_FALSE(proto::is_dymo_gossip_flooding(kit));
}

TEST(Gossip, SureHopsKeepProbabilityOneNetsWorking) {
  // p = 1.0 degenerates to blind flooding: everything must still work.
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("dymo");
  for (std::size_t i = 0; i < 5; ++i) {
    proto::apply_dymo_gossip_flooding(world.kit(i),
                                      proto::GossipParams{1.0, 1, 7});
  }
  world.run_for(sec(5));
  world.node(0).forwarding().send(world.addr(4), 64);
  world.run_for(sec(3));
  EXPECT_EQ(world.node(4).deliveries().size(), 1u);
}

TEST(Gossip, CutsRelayTrafficInDenseNetworksButStillDelivers) {
  auto run = [](bool gossip) {
    testbed::SimWorld world(16, /*seed=*/31);
    Rng rng(31);
    std::vector<net::SimNode*> nodes;
    for (std::size_t i = 0; i < 16; ++i) nodes.push_back(&world.node(i));
    net::topo::random_geometric(world.medium(), nodes, 600, 600, 280, rng);
    world.deploy_all("dymo");
    if (gossip) {
      for (std::size_t i = 0; i < 16; ++i) {
        proto::apply_dymo_gossip_flooding(world.kit(i),
                                          proto::GossipParams{0.6, 1, 5});
      }
    }
    world.run_for(sec(10));
    world.medium().reset_stats();
    std::size_t delivered = 0;
    for (int k = 0; k < 6; ++k) {
      auto a = static_cast<std::size_t>(rng.uniform_int(0, 15));
      auto b = static_cast<std::size_t>(rng.uniform_int(0, 15));
      if (a == b) continue;
      std::size_t before = world.node(b).deliveries().size();
      world.node(a).forwarding().send(world.addr(b), 64);
      world.run_for(sec(4));
      delivered += world.node(b).deliveries().size() - before;
    }
    return std::make_pair(world.medium().stats().control_bytes, delivered);
  };

  auto [blind_bytes, blind_delivered] = run(false);
  auto [gossip_bytes, gossip_delivered] = run(true);

  EXPECT_LT(gossip_bytes, blind_bytes)
      << "p=0.6 gossip must shed rebroadcast traffic";
  // Dense network: gossip keeps discoveries succeeding (allow one miss).
  EXPECT_GE(gossip_delivered + 1, blind_delivered);
}

}  // namespace
}  // namespace mk

// Table 1 reproduction: Comparative Performance of MANETKit Protocols.
//
//   rows:    Time to Process Message (us), Route Establishment Delay (ms)
//   columns: Unik-olsrd | MKit-OLSR | DYMOUM-0.3 | MKit-DYMO
//
// Methodology mirrors the paper (§6.1): 5-node 802.11-style emulated linear
// topology; identical HELLO / TC intervals and route hold times between
// framework and monolithic implementations; single-threaded concurrency
// model.
//
//  * Time to Process Message — wall-clock from control-message receipt to
//    completion of all synchronous processing, measured inside live runs
//    (OLSR: Topology Change message; DYMO: RREQ routing message).
//  * Route Establishment Delay — simulated-network time: for OLSR, a new
//    node joins one end of the chain and we time until it has computed a
//    fully-populated routing table; for DYMO, a cold end-to-end route
//    discovery across the chain.
#include <cstdio>

#include "protocols/dymo/dymo_cf.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "testbed/world.hpp"
#include "util/stats.hpp"

namespace mk {
namespace {

constexpr std::size_t kNodes = 5;

// ---------------------------------------------------- Time to Process Message

double mkit_olsr_tc_processing_ms() {
  testbed::SimWorld world(kNodes);
  world.linear();
  world.deploy_all("olsr");
  for (std::size_t i = 0; i < kNodes; ++i) {
    world.kit(i).system().enable_profiling(true);
  }
  world.run_for(sec(120));

  double total = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto& times = world.kit(i).system().processing_times();
    auto it = times.find("TC");
    if (it != times.end()) {
      total += it->second.mean() * static_cast<double>(it->second.count());
      n += it->second.count();
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double olsrd_tc_processing_ms() {
  testbed::SimWorld world(kNodes);
  world.linear();
  for (std::size_t i = 0; i < kNodes; ++i) {
    world.olsrd(i).enable_profiling(true);
  }
  world.run_for(sec(120));

  double total = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto& times = world.olsrd(i).processing_times();
    auto it = times.find("TC");
    if (it != times.end()) {
      total += it->second.mean() * static_cast<double>(it->second.count());
      n += it->second.count();
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double mkit_dymo_rm_processing_ms() {
  testbed::SimWorld world(kNodes);
  world.linear();
  world.deploy_all("dymo");
  for (std::size_t i = 0; i < kNodes; ++i) {
    world.kit(i).system().enable_profiling(true);
  }
  world.run_for(sec(5));
  // Generate a steady stream of discoveries (lifetimes expire between).
  for (int round = 0; round < 40; ++round) {
    world.node(0).forwarding().send(world.addr(4), 64);
    world.node(4).forwarding().send(world.addr(0), 64);
    world.run_for(sec(8));
  }

  double total = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto& times = world.kit(i).system().processing_times();
    auto it = times.find("RM");
    if (it != times.end()) {
      total += it->second.mean() * static_cast<double>(it->second.count());
      n += it->second.count();
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double dymoum_rm_processing_ms() {
  testbed::SimWorld world(kNodes);
  world.linear();
  for (std::size_t i = 0; i < kNodes; ++i) {
    world.dymoum(i).enable_profiling(true);
  }
  world.run_for(sec(1));
  for (int round = 0; round < 40; ++round) {
    world.node(0).forwarding().send(world.addr(4), 64);
    world.node(4).forwarding().send(world.addr(0), 64);
    world.run_for(sec(8));
  }

  double total = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto& times = world.dymoum(i).processing_times();
    auto it = times.find("RM");
    if (it != times.end()) {
      total += it->second.mean() * static_cast<double>(it->second.count());
      n += it->second.count();
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

// ------------------------------------------------- Route Establishment Delay

/// OLSR: node 4 joins the end of a converged 4-node chain; time (sim ms)
/// until its routing table is fully populated.
template <typename DeployFn, typename ReadyFn>
double olsr_join_delay_ms(DeployFn deploy, ReadyFn ready) {
  testbed::SimWorld world(kNodes);
  auto addrs = world.addrs();
  for (std::size_t i = 0; i + 2 < addrs.size(); ++i) {
    world.medium().set_link(addrs[i], addrs[i + 1], true);
  }
  deploy(world);
  world.run_for(sec(40));  // converge the 4-node chain

  world.medium().set_link(addrs[3], addrs[4], true);
  TimePoint joined = world.now();
  while (world.now() - joined < sec(120)) {
    if (ready(world)) return to_ms(world.now() - joined);
    world.scheduler().run_for(msec(1));
  }
  return -1.0;
}

bool node4_fully_routed(testbed::SimWorld& world) {
  for (std::size_t i = 0; i < 4; ++i) {
    if (!world.node(4).kernel_table().lookup(world.addr(i))) return false;
  }
  return true;
}

/// DYMO: cold route discovery across the chain; time from first send at
/// node 0 until the route to node 4 is installed.
template <typename DeployFn>
double dymo_discovery_delay_ms(DeployFn deploy) {
  testbed::SimWorld world(kNodes);
  world.linear();
  deploy(world);
  world.run_for(sec(5));  // neighbour detection settles

  world.node(0).forwarding().send(world.addr(4), 64);
  TimePoint start = world.now();
  while (world.now() - start < sec(30)) {
    if (world.has_route(0, world.addr(4))) {
      return to_ms(world.now() - start);
    }
    world.scheduler().run_for(usec(100));
  }
  return -1.0;
}

}  // namespace
}  // namespace mk

int main() {
  using namespace mk;

  std::printf("Table 1: Comparative Performance of MANETKit Protocols\n");
  std::printf("(5-node linear emulated topology; identical parameters; "
              "single-threaded model)\n\n");

  double olsrd_proc = olsrd_tc_processing_ms();
  double mkit_olsr_proc = mkit_olsr_tc_processing_ms();
  double dymoum_proc = dymoum_rm_processing_ms();
  double mkit_dymo_proc = mkit_dymo_rm_processing_ms();

  double olsrd_delay = olsr_join_delay_ms(
      [](testbed::SimWorld& w) {
        for (std::size_t i = 0; i < kNodes; ++i) w.olsrd(i);
      },
      node4_fully_routed);
  double mkit_olsr_delay = olsr_join_delay_ms(
      [](testbed::SimWorld& w) { w.deploy_all("olsr"); }, node4_fully_routed);
  double dymoum_delay = dymo_discovery_delay_ms([](testbed::SimWorld& w) {
    for (std::size_t i = 0; i < kNodes; ++i) w.dymoum(i);
  });
  double mkit_dymo_delay = dymo_discovery_delay_ms(
      [](testbed::SimWorld& w) { w.deploy_all("dymo"); });

  std::printf("%-34s %12s %12s %14s %12s\n", "", "Unik-olsrd", "MKit-OLSR",
              "DYMOUM-0.3", "MKit-DYMO");
  // Per-message processing takes 0.5-3 us here: print microseconds with
  // three decimals so one run resolves the cells and their ratios.
  std::printf("%-34s %12.3f %12.3f %14.3f %12.3f\n",
              "Time to Process Message (us)", olsrd_proc * 1e3,
              mkit_olsr_proc * 1e3, dymoum_proc * 1e3, mkit_dymo_proc * 1e3);
  std::printf("%-34s %12.1f %12.1f %14.1f %12.1f\n",
              "Route Establishment Delay (ms)", olsrd_delay, mkit_olsr_delay,
              dymoum_delay, mkit_dymo_delay);

  std::printf(
      "\nPaper reported: 45 / 96 / 135 / 122 us processing and\n"
      "995 / 1026 / 37 / 27.3 ms establishment. Expected shape: per-message\n"
      "processing within the same order of magnitude as the monolith;\n"
      "proactive establishment ~seconds (driven by HELLO/TC intervals),\n"
      "reactive establishment ~tens of ms (one RREQ/RREP round trip).\n");
  return 0;
}

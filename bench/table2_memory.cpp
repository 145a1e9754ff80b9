// Table 2 reproduction: Comparative Resource Overhead (memory footprint).
//
//   columns: Unik-olsrd | MKit-OLSR | DYMOUM-0.3 | MKit-DYMO |
//            Unik-olsrd + DYMOUM-0.3 | MKit OLSR+DYMO (co-deployed)
//
// The paper measured process memory footprints of the daemons; here the
// instrumented global allocator (util/memtrack) attributes live heap bytes
// to each deployment after it has built its structures and run briefly in a
// 5-node network (so tables are populated comparably). The headline shape:
// each MANETKit protocol alone costs more than its monolith (framework
// machinery), but co-deploying both in one MANETKit instance shares the
// System CF / Framework Manager / MPR machinery, undercutting the *sum* of
// the two monoliths. The run fails (exit 1) if co-deployment stops
// undercutting two separate MANETKit stacks; the check is skipped when the
// counting allocator is not the one linked (sanitizer builds read 0).
#include <cstdio>

#include "testbed/world.hpp"
#include "util/memtrack.hpp"

namespace mk {
namespace {

constexpr std::size_t kNodes = 5;

/// Live heap attributable to one node-0 routing stack, measured in a warmed
/// 5-node world. `attach` installs the stack on every node (so protocol
/// state is realistic) but the scope brackets only node 0's stack.
template <typename AttachOthers, typename AttachMeasured>
std::uint64_t footprint_bytes(AttachOthers attach_others,
                              AttachMeasured attach_measured) {
  testbed::SimWorld world(kNodes);
  world.linear();
  attach_others(world);          // nodes 1..4
  world.run_for(sec(10));        // let their chatter settle

  memtrack::Scope scope;
  attach_measured(world);        // node 0 — the measured deployment
  world.run_for(sec(30));        // populate tables, exchange control traffic
  return scope.live_bytes_delta();
}

double kb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1024.0; }

}  // namespace
}  // namespace mk

int main() {
  using namespace mk;

  auto olsrd_others = [](testbed::SimWorld& w) {
    for (std::size_t i = 1; i < kNodes; ++i) w.olsrd(i);
  };
  auto dymoum_others = [](testbed::SimWorld& w) {
    for (std::size_t i = 1; i < kNodes; ++i) w.dymoum(i);
  };
  auto mkit_olsr_others = [](testbed::SimWorld& w) {
    for (std::size_t i = 1; i < kNodes; ++i) w.kit(i).deploy("olsr");
  };
  auto mkit_dymo_others = [](testbed::SimWorld& w) {
    for (std::size_t i = 1; i < kNodes; ++i) w.kit(i).deploy("dymo");
  };

  std::uint64_t olsrd = footprint_bytes(
      olsrd_others, [](testbed::SimWorld& w) { w.olsrd(0); });
  std::uint64_t mkit_olsr = footprint_bytes(
      mkit_olsr_others, [](testbed::SimWorld& w) { w.kit(0).deploy("olsr"); });
  std::uint64_t dymoum = footprint_bytes(
      dymoum_others, [](testbed::SimWorld& w) {
        w.dymoum(0);
        w.node(0).forwarding().send(net::addr_for_index(4), 64);
      });
  std::uint64_t mkit_dymo = footprint_bytes(
      mkit_dymo_others, [](testbed::SimWorld& w) {
        w.kit(0).deploy("dymo");
        w.node(0).forwarding().send(net::addr_for_index(4), 64);
      });

  // Both monoliths side by side on node 0 (two processes in the paper).
  std::uint64_t monolith_sum = olsrd + dymoum;

  // Both protocols co-deployed in ONE MANETKit instance on node 0.
  std::uint64_t mkit_both = footprint_bytes(
      [&](testbed::SimWorld& w) {
        for (std::size_t i = 1; i < kNodes; ++i) {
          w.kit(i).deploy("olsr");
          w.kit(i).deploy("dymo");
        }
      },
      [](testbed::SimWorld& w) {
        w.kit(0).deploy("olsr");
        w.kit(0).deploy("dymo");
        w.node(0).forwarding().send(net::addr_for_index(4), 64);
      });

  std::uint64_t mkit_separate_sum = mkit_olsr + mkit_dymo;

  std::printf("Table 2: Comparative Resource Overhead of MANETKit Protocols\n");
  std::printf("(live heap KB of one node's routing stack, warmed 5-node "
              "linear network)\n\n");
  std::printf("%-28s %10s\n", "Deployment", "KB");
  std::printf("%-28s %10.1f\n", "Unik-olsrd", kb(olsrd));
  std::printf("%-28s %10.1f\n", "MKit-OLSR", kb(mkit_olsr));
  std::printf("%-28s %10.1f\n", "DYMOUM-0.3", kb(dymoum));
  std::printf("%-28s %10.1f\n", "MKit-DYMO", kb(mkit_dymo));
  std::printf("%-28s %10.1f\n", "Unik-olsrd + DYMOUM-0.3", kb(monolith_sum));
  std::printf("%-28s %10.1f\n", "MKit OLSR+DYMO (co-deploy)", kb(mkit_both));
  std::printf("\nSharing effect: co-deployment saves %.1f KB (%.0f%%) vs two "
              "separate MANETKit stacks (%.1f KB)\n",
              kb(mkit_separate_sum - mkit_both),
              100.0 * (1.0 - static_cast<double>(mkit_both) /
                                 static_cast<double>(mkit_separate_sum)),
              kb(mkit_separate_sum));
  std::printf(
      "\nPaper reported (KB): 136.3 / 179.0 / 120.4 / 178.1 / 256.7 / 236.6.\n"
      "Expected shape: MKit-per-protocol > monolith; MKit co-deployment <\n"
      "sum of separate stacks, amortising the framework machinery.\n");

  if (!memtrack::interposer_live()) {
    std::printf("\nSharing check skipped: the counting allocator is not "
                "linked (sanitizer build), so every footprint reads 0.\n");
    return 0;
  }
  if (mkit_both >= mkit_separate_sum) {
    std::fprintf(stderr,
                 "FAIL: co-deployment (%.1f KB) does not undercut two "
                 "separate MANETKit stacks (%.1f KB)\n",
                 kb(mkit_both), kb(mkit_separate_sum));
    return 1;
  }
  return 0;
}

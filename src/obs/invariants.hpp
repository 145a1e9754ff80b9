// Continuous routing-invariant checker (ISSUE 3): subscribes to route and
// link journal records and asserts, while reconfiguration is in flight, the
// correctness properties the paper's runtime-adaptation story depends on:
//
//  * loop-freedom      — following next-hops from any node never revisits a
//                        node before reaching the destination (walk bounded
//                        by the node count);
//  * route validity    — a newly installed route's next hop is a current
//                        neighbour (with a configurable grace window after a
//                        link drop, since protocols legitimately take one
//                        detection round to notice a break);
//  * neighbour symmetry — the link relation the routes are built over is
//                        bidirectional (checked in full sweeps; scenarios
//                        that intentionally use directed links disable it).
//
// The checker is deliberately decoupled from net/: it reads world state
// through provider callbacks (route lookup, link truth), so obs/ stays a
// leaf library and the same checker drives simulated worlds, unit-test
// fixtures, and replayed traces alike. On violation it fires a diagnostic
// hook (default: a WARN log line) and retains the violation for inspection.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/journal.hpp"
#include "util/time.hpp"

namespace mk::obs {

struct RouteView {
  std::uint32_t dest = 0;
  std::uint32_t next_hop = 0;
  std::uint32_t metric = 0;
};

class InvariantChecker {
 public:
  /// Route to `dest` installed at `node`, if any.
  using LookupFn = std::function<std::optional<RouteView>(std::uint32_t node,
                                                          std::uint32_t dest)>;
  /// All routes installed at `node`.
  using RoutesFn =
      std::function<std::vector<RouteView>(std::uint32_t node)>;
  /// Ground-truth directed link state (medium adjacency).
  using LinkFn = std::function<bool(std::uint32_t from, std::uint32_t to)>;

  /// Link grace of a new checker: the longest link hold time of the
  /// built-in protocols (6 s) plus one HELLO interval (2 s). The testbed
  /// derives the same value from the protocol constants and pins the two
  /// equal, so a checker built outside SimWorld judges routes alike.
  static constexpr Duration kDefaultLinkGrace = sec(8);

  InvariantChecker(std::vector<std::uint32_t> nodes, LookupFn lookup,
                   RoutesFn routes, LinkFn link);

  struct Violation {
    enum class Kind {
      kLoop,             // next-hop walk revisited a node
      kInvalidNextHop,   // installed route via a non-neighbour
      kAsymmetricLink,   // a hears b but b does not hear a
    };
    Kind kind{};
    std::uint32_t node = 0;      // where the offending route lives
    std::uint32_t dest = 0;
    std::uint32_t next_hop = 0;  // 0 for kAsymmetricLink (dest = peer)
    std::int64_t time_us = 0;
    std::string describe() const;
  };

  /// Registers this checker as a journal observer: every kRouteAdd record
  /// triggers the continuous checks; kLinkUp/kLinkDown keep the grace-window
  /// bookkeeping current. Call once.
  void attach(Journal& journal);

  /// Observer entry point (also callable directly when replaying a loaded
  /// trace through the checker).
  void on_record(const Record& record);

  /// Full sweep over every node's table: loop-freedom + route validity +
  /// (when enabled) link symmetry. Returns the number of new violations.
  /// Intended for quiescent points (post-convergence, end of scenario).
  std::size_t check_all(std::int64_t time_us = 0);

  /// A protocol legitimately keeps routing via a broken link until its
  /// neighbour detection notices; installs within `grace` of the link drop
  /// are not flagged.
  void set_link_grace(Duration grace) { grace_us_ = grace.count(); }
  Duration link_grace() const { return Duration{grace_us_}; }

  /// Scenarios with intentionally directed links disable symmetry checks.
  void set_check_symmetry(bool on) { check_symmetry_ = on; }

  using ViolationHook = std::function<void(const Violation&)>;
  /// Replaces the diagnostic hook (default: WARN log line per violation).
  void set_violation_hook(ViolationHook hook);

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t checks_run() const { return checks_run_; }
  void clear_violations() { violations_.clear(); }

  /// Post-mortem dump: violations plus the tail of the attached journal.
  void diagnostic_dump(std::ostream& out, std::size_t tail = 64) const;

 private:
  void record_violation(Violation v);
  void check_route(std::uint32_t node, std::uint32_t dest,
                   std::uint32_t next_hop, std::int64_t time_us);
  void walk_for_loop(std::uint32_t start, std::uint32_t dest,
                     std::int64_t time_us);

  std::vector<std::uint32_t> nodes_;
  LookupFn lookup_;
  RoutesFn routes_;
  LinkFn link_;
  Journal* journal_ = nullptr;
  std::int64_t grace_us_ = kDefaultLinkGrace.count();
  bool check_symmetry_ = true;
  ViolationHook hook_;
  std::vector<Violation> violations_;
  std::uint64_t checks_run_ = 0;
  /// Directed link -> sim time it last went down (erased when it comes up).
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> down_since_;
  /// Directed links that have been up at least once since attach.
  std::map<std::pair<std::uint32_t, std::uint32_t>, bool> ever_up_;
};

}  // namespace mk::obs

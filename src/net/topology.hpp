// Topology builders and mobility models for the simulated medium.
//
// linear() reproduces the paper's 5-node chain testbed; the other builders
// and the RandomWaypoint model support the wider parameter sweeps in the
// ablation benches.
//
// Range-derived links come in two backends (the scheduler's wheel/heap
// backend-oracle pattern, applied to the medium):
//
//  * TopologyBackend::kGrid       — spatial-hash index (cell size = radio
//                                   range): one sweep tests each pair that
//                                   shares or borders a cell, O(n·k) pair
//                                   tests per pass.
//  * TopologyBackend::kReference  — the original exhaustive O(n²) scan, kept
//                                   as the conformance oracle.
//
// Both backends collect the link flips they imply, sort them by
// (min addr, max addr) and only then apply them to the medium, so a traced
// run produces bit-identical ordered journal digests whichever backend
// computed the links — the digest machinery is the acceptance test for the
// spatial index (see tests/test_topology_scale.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/medium.hpp"
#include "net/node.hpp"
#include "net/spatial_index.hpp"
#include "util/rng.hpp"

namespace mk::net::topo {

/// a—b—c—d—... chain (symmetric links).
void linear(SimMedium& medium, std::span<const Addr> addrs);

/// Chain closed into a cycle.
void ring(SimMedium& medium, std::span<const Addr> addrs);

/// Row-major grid with 4-neighbourhood links.
void grid(SimMedium& medium, std::span<const Addr> addrs, std::size_t cols);

/// Every pair adjacent (single dense cell).
void full_mesh(SimMedium& medium, std::span<const Addr> addrs);

/// Which structure computes range-derived links (see file comment).
enum class TopologyBackend : std::uint8_t {
  kGrid,       // spatial-hash index, O(n·k)
  kReference,  // exhaustive all-pairs oracle, O(n²)
};

/// One pending link transition, keyed canonically (a < b). Both backends
/// sort their flips by (a, b) before touching the medium, which pins the
/// journal's kLinkUp/kLinkDown order independently of how the flips were
/// discovered.
struct LinkFlip {
  Addr a = kNoAddr;  // min endpoint
  Addr b = kNoAddr;  // max endpoint
  bool up = false;

  friend bool operator<(const LinkFlip& l, const LinkFlip& r) {
    return l.a != r.a ? l.a < r.a : l.b < r.b;
  }
};

/// Links derived from node positions: adjacent iff dist² <= range². Brings
/// the medium's links over `nodes` in sync with the current positions from
/// scratch (existing links outside the rule are torn down per-pair), so it
/// is safe to call repeatedly as nodes move. Every pair test is counted on
/// the medium's "medium.pair_evals" counter.
void apply_range_links(SimMedium& medium, std::span<SimNode* const> nodes,
                       double range,
                       TopologyBackend backend = TopologyBackend::kGrid);

/// Places nodes uniformly at random in [0,w]x[0,h] and applies range links.
void random_geometric(SimMedium& medium, std::span<SimNode* const> nodes,
                      double w, double h, double range, Rng& rng,
                      TopologyBackend backend = TopologyBackend::kGrid);

/// Range-link maintenance over a fixed node set: the persistent form of
/// apply_range_links(kGrid) for mobility stepping. Nodes are indexed by their
/// position ("slot") in the vector handed to the constructor.
///
/// Protocol per mobility step: mutate positions, then update(). The grid
/// index survives between steps (nodes that left their anchor are moved in
/// it, not reinserted), and the links are re-derived by one sweep whenever
/// any node moved. The maintained links are exactly the reference backend's
/// at every step.
class RangeLinkTracker {
 public:
  /// Grid-indexes `nodes` at their current positions and synchronises every
  /// link among them from scratch.
  RangeLinkTracker(SimMedium& medium, std::span<SimNode* const> nodes,
                   double range);

  /// Re-anchors every node that moved since the last update() and, if any
  /// did, synchronises the links.
  void update();

 private:
  /// One half-neighbourhood sweep over the grid cells tests every candidate
  /// pair exactly once; each node's rebuilt neighbour list is then
  /// merge-diffed against the medium, and the flips are applied in
  /// (min addr, max addr) order.
  void sync();

  SimMedium& medium_;
  std::vector<SimNode*> nodes_;
  std::vector<Addr> addr_;  // addr_[slot] == nodes_[slot]->addr()
  double range2_;
  SpatialGrid grid_;
  std::vector<Position> anchor_;          // position at last link evaluation
  std::vector<std::vector<Addr>> fresh_;  // sync neighbour-list scratch
  std::vector<LinkFlip> flips_;
  std::unordered_map<Addr, std::uint32_t> slot_of_;
};

}  // namespace mk::net::topo

namespace mk::net {

/// Common interface over mobility models: the scenario matrix (and
/// testbed::SimWorld) steps any model through one pointer. step(dt) advances
/// positions by dt of simulated time and brings range-based adjacency on the
/// medium back in sync.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual void step(Duration dt) = 0;
  virtual topo::TopologyBackend backend() const = 0;
  virtual std::string_view name() const = 0;
};

/// Shared range-link maintenance for position-stepping models: under the
/// grid backend a RangeLinkTracker carries the grid index across steps;
/// under the reference backend every sync is a full O(n²) oracle recompute
/// (bit-identical journal either way — the PR-7 conformance contract).
class RangeMobilityBase : public MobilityModel {
 public:
  topo::TopologyBackend backend() const override { return backend_; }

 protected:
  RangeMobilityBase(SimMedium& medium, std::vector<SimNode*> nodes,
                    double range, topo::TopologyBackend backend);

  /// Builds the tracker (grid) or runs the first oracle pass (reference).
  /// Called by subclasses after initial placement.
  void init_links();
  /// Brings the links back in sync with the current positions (tracker
  /// update / oracle rerun). Called by subclasses after each step's moves.
  void sync_links();

  SimMedium& medium_;
  std::vector<SimNode*> nodes_;

 private:
  double range_;
  topo::TopologyBackend backend_;
  std::unique_ptr<topo::RangeLinkTracker> tracker_;  // kGrid only
};

/// Random-waypoint mobility: each node picks a waypoint, travels at a random
/// speed, pauses, repeats. step(dt) advances positions and updates
/// range-based adjacency on the medium — via a RangeLinkTracker under the
/// grid backend, or with a full reference recompute as the oracle.
class RandomWaypoint : public RangeMobilityBase {
 public:
  struct Params {
    double width = 1000.0;
    double height = 1000.0;
    double min_speed = 1.0;   // m/s
    double max_speed = 10.0;  // m/s
    double pause = 2.0;       // s
    double range = 250.0;     // radio range, m
  };

  RandomWaypoint(SimMedium& medium, std::vector<SimNode*> nodes, Params params,
                 std::uint64_t seed = 7,
                 topo::TopologyBackend backend = topo::TopologyBackend::kGrid);

  /// Advances the model by dt and updates range links.
  void step(Duration dt) override;
  std::string_view name() const override { return "random_waypoint"; }

 private:
  struct State {
    Position waypoint;
    double speed = 0.0;
    double pause_left = 0.0;
  };

  void pick_waypoint(std::size_t i);

  Params params_;
  Rng rng_;
  std::vector<State> states_;
};

/// Gauss–Markov mobility: per-node speed and heading evolve as first-order
/// autoregressive processes around a mean, giving temporally correlated,
/// tunably smooth trajectories (alpha→1: near-linear; alpha→0: Brownian).
/// Nodes reflect off the field boundary (heading and its mean are mirrored),
/// so the fleet stays inside [0,width]×[0,height]. Link maintenance shares
/// RandomWaypoint's RangeLinkTracker path.
class GaussMarkov : public RangeMobilityBase {
 public:
  struct Params {
    double width = 1000.0;
    double height = 1000.0;
    double mean_speed = 5.0;       // m/s, the AR process's attractor
    double speed_sigma = 1.0;      // stddev of the speed perturbation
    double direction_sigma = 0.5;  // stddev of the heading perturbation, rad
    double alpha = 0.85;           // memory in [0,1): weight of the past
    double range = 250.0;          // radio range, m
  };

  GaussMarkov(SimMedium& medium, std::vector<SimNode*> nodes, Params params,
              std::uint64_t seed = 7,
              topo::TopologyBackend backend = topo::TopologyBackend::kGrid);

  void step(Duration dt) override;
  std::string_view name() const override { return "gauss_markov"; }

 private:
  struct State {
    double speed = 0.0;
    double dir = 0.0;       // current heading, rad
    double mean_dir = 0.0;  // per-node heading attractor
  };

  Params params_;
  Rng rng_;
  std::vector<State> states_;
};

}  // namespace mk::net

#include "net/topology.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace mk::net::topo {

void linear(SimMedium& medium, std::span<const Addr> addrs) {
  for (std::size_t i = 0; i + 1 < addrs.size(); ++i) {
    medium.set_link(addrs[i], addrs[i + 1], true);
  }
}

void ring(SimMedium& medium, std::span<const Addr> addrs) {
  linear(medium, addrs);
  if (addrs.size() > 2) {
    medium.set_link(addrs.front(), addrs.back(), true);
  }
}

void grid(SimMedium& medium, std::span<const Addr> addrs, std::size_t cols) {
  MK_ASSERT(cols > 0);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if ((i + 1) % cols != 0 && i + 1 < addrs.size()) {
      medium.set_link(addrs[i], addrs[i + 1], true);
    }
    if (i + cols < addrs.size()) {
      medium.set_link(addrs[i], addrs[i + cols], true);
    }
  }
}

void full_mesh(SimMedium& medium, std::span<const Addr> addrs) {
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    for (std::size_t j = i + 1; j < addrs.size(); ++j) {
      medium.set_link(addrs[i], addrs[j], true);
    }
  }
}

namespace {

LinkFlip make_flip(Addr a, Addr b, bool up) {
  return a < b ? LinkFlip{a, b, up} : LinkFlip{b, a, up};
}

/// The conformance oracle: exhaustive all-pairs scan, squared distances,
/// flips collected and applied in (min addr, max addr) order — the exact
/// contract the grid backend must reproduce bit-for-bit.
void apply_range_links_reference(SimMedium& medium,
                                 std::span<SimNode* const> nodes,
                                 double range) {
  const double range2 = range * range;
  std::vector<LinkFlip> flips;
  std::uint64_t evals = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Position pi = nodes[i]->position();
    const Addr ai = nodes[i]->addr();
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      ++evals;
      bool in_range = dist_sq(pi, nodes[j]->position()) <= range2;
      Addr aj = nodes[j]->addr();
      if (medium.has_link(ai, aj) != in_range) {
        flips.push_back(make_flip(ai, aj, in_range));
      }
    }
  }
  medium.pair_evals_counter().inc(evals);
  std::sort(flips.begin(), flips.end());
  for (const LinkFlip& f : flips) medium.set_link(f.a, f.b, f.up);
}

}  // namespace

void apply_range_links(SimMedium& medium, std::span<SimNode* const> nodes,
                       double range, TopologyBackend backend) {
  if (backend == TopologyBackend::kReference) {
    apply_range_links_reference(medium, nodes, range);
  } else {
    // A transient tracker: construction grid-indexes the nodes and
    // synchronises every link from scratch.
    RangeLinkTracker tracker(medium, nodes, range);
  }
}

void random_geometric(SimMedium& medium, std::span<SimNode* const> nodes,
                      double w, double h, double range, Rng& rng,
                      TopologyBackend backend) {
  for (SimNode* n : nodes) {
    n->set_position({rng.uniform(0.0, w), rng.uniform(0.0, h)});
  }
  apply_range_links(medium, nodes, range, backend);
}

// -------------------------------------------------------- RangeLinkTracker

RangeLinkTracker::RangeLinkTracker(SimMedium& medium,
                                   std::span<SimNode* const> nodes,
                                   double range)
    : medium_(medium),
      nodes_(nodes.begin(), nodes.end()),
      range2_(range * range),
      grid_(range),
      fresh_(nodes.size()) {
  MK_ASSERT(range > 0.0);
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  addr_.reserve(n);
  anchor_.reserve(n);
  slot_of_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    addr_.push_back(nodes_[i]->addr());
    anchor_.push_back(nodes_[i]->position());
    grid_.insert(i, anchor_[i]);
    auto [_, inserted] = slot_of_.emplace(addr_[i], i);
    MK_ASSERT(inserted, "duplicate node address in tracked set");
  }
  sync();
}

void RangeLinkTracker::update() {
  bool moved = false;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Position cur = nodes_[i]->position();
    if (dist_sq(cur, anchor_[i]) == 0.0) continue;
    grid_.move(i, anchor_[i], cur);
    anchor_[i] = cur;
    moved = true;
  }
  if (moved) sync();
}

void RangeLinkTracker::sync() {
  for (auto& v : fresh_) v.clear();
  std::uint64_t evals = 0;
  grid_.for_each_candidate_pair([&](std::uint32_t a, std::uint32_t b) {
    ++evals;
    if (dist_sq(anchor_[a], anchor_[b]) <= range2_) {
      fresh_[a].push_back(addr_[b]);
      fresh_[b].push_back(addr_[a]);
    }
  });
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Addr ai = addr_[i];
    std::vector<Addr>& now = fresh_[i];
    std::sort(now.begin(), now.end());
    // Merge-diff against the medium's sorted span. Every changed pair is
    // seen from both endpoints; the min endpoint emits the flip. Links to
    // addresses outside the tracked set are left alone.
    const std::span<const Addr> old = medium_.neighbors_of(ai);
    std::size_t oi = 0, ni = 0;
    while (oi < old.size() || ni < now.size()) {
      if (ni == now.size() || (oi < old.size() && old[oi] < now[ni])) {
        Addr gone = old[oi++];
        // gone < ai: the other endpoint owns the flip and emits it from its
        // own diff (adjacency and fresh lists are both symmetric).
        if (ai < gone && slot_of_.count(gone) != 0) {
          flips_.push_back({ai, gone, false});
        }
      } else if (oi == old.size() || now[ni] < old[oi]) {
        Addr fresh_nb = now[ni++];
        if (ai < fresh_nb) flips_.push_back({ai, fresh_nb, true});
      } else {
        ++oi;
        ++ni;  // unchanged link
      }
    }
  }
  medium_.pair_evals_counter().inc(evals);
  std::sort(flips_.begin(), flips_.end());
  for (const LinkFlip& f : flips_) medium_.set_link(f.a, f.b, f.up);
  flips_.clear();
}

}  // namespace mk::net::topo

namespace mk::net {

RangeMobilityBase::RangeMobilityBase(SimMedium& medium,
                                     std::vector<SimNode*> nodes, double range,
                                     topo::TopologyBackend backend)
    : medium_(medium),
      nodes_(std::move(nodes)),
      range_(range),
      backend_(backend) {}

void RangeMobilityBase::init_links() {
  if (backend_ == topo::TopologyBackend::kGrid) {
    tracker_ = std::make_unique<topo::RangeLinkTracker>(medium_, nodes_,
                                                        range_);
  } else {
    topo::apply_range_links(medium_, nodes_, range_,
                            topo::TopologyBackend::kReference);
  }
}

void RangeMobilityBase::sync_links() {
  if (tracker_ != nullptr) {
    tracker_->update();
  } else {
    topo::apply_range_links(medium_, nodes_, range_,
                            topo::TopologyBackend::kReference);
  }
}

RandomWaypoint::RandomWaypoint(SimMedium& medium, std::vector<SimNode*> nodes,
                               Params params, std::uint64_t seed,
                               topo::TopologyBackend backend)
    : RangeMobilityBase(medium, std::move(nodes), params.range, backend),
      params_(params),
      rng_(seed) {
  states_.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->set_position(
        {rng_.uniform(0.0, params_.width), rng_.uniform(0.0, params_.height)});
    pick_waypoint(i);
  }
  init_links();
}

void RandomWaypoint::pick_waypoint(std::size_t i) {
  states_[i].waypoint = {rng_.uniform(0.0, params_.width),
                         rng_.uniform(0.0, params_.height)};
  states_[i].speed = rng_.uniform(params_.min_speed, params_.max_speed);
  states_[i].pause_left = 0.0;
}

void RandomWaypoint::step(Duration dt) {
  double t = static_cast<double>(dt.count()) / 1e6;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    State& s = states_[i];
    if (s.pause_left > 0.0) {
      s.pause_left -= t;
      continue;
    }
    Position p = nodes_[i]->position();
    double dx = s.waypoint.x - p.x;
    double dy = s.waypoint.y - p.y;
    double dist = std::sqrt(dx * dx + dy * dy);
    double travel = s.speed * t;
    if (travel >= dist) {
      nodes_[i]->set_position(s.waypoint);
      s.pause_left = params_.pause;
      pick_waypoint(i);
    } else {
      nodes_[i]->set_position(
          {p.x + dx / dist * travel, p.y + dy / dist * travel});
    }
  }
  sync_links();
}

GaussMarkov::GaussMarkov(SimMedium& medium, std::vector<SimNode*> nodes,
                         Params params, std::uint64_t seed,
                         topo::TopologyBackend backend)
    : RangeMobilityBase(medium, std::move(nodes), params.range, backend),
      params_(params),
      rng_(seed) {
  MK_ASSERT(params_.alpha >= 0.0 && params_.alpha < 1.0);
  states_.resize(nodes_.size());
  constexpr double kTau = 6.283185307179586;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->set_position(
        {rng_.uniform(0.0, params_.width), rng_.uniform(0.0, params_.height)});
    states_[i].speed = params_.mean_speed;
    states_[i].mean_dir = rng_.uniform(0.0, kTau);
    states_[i].dir = states_[i].mean_dir;
  }
  init_links();
}

void GaussMarkov::step(Duration dt) {
  const double t = static_cast<double>(dt.count()) / 1e6;
  const double a = params_.alpha;
  // The AR(1) recursion's stationary-variance weight: with this factor on
  // the Gaussian term, speed/heading variance is sigma² independent of
  // alpha (the standard Gauss–Markov mobility formulation).
  const double root = std::sqrt(1.0 - a * a);
  constexpr double kPi = 3.141592653589793;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    State& s = states_[i];
    s.speed = a * s.speed + (1.0 - a) * params_.mean_speed +
              root * rng_.normal(0.0, params_.speed_sigma);
    if (s.speed < 0.0) s.speed = 0.0;
    s.dir = a * s.dir + (1.0 - a) * s.mean_dir +
            root * rng_.normal(0.0, params_.direction_sigma);
    Position p = nodes_[i]->position();
    p.x += s.speed * std::cos(s.dir) * t;
    p.y += s.speed * std::sin(s.dir) * t;
    // Reflect off the field boundary, mirroring both the heading and its
    // attractor so the process does not keep pushing into the wall.
    if (p.x < 0.0 || p.x > params_.width) {
      p.x = p.x < 0.0 ? -p.x : 2.0 * params_.width - p.x;
      s.dir = kPi - s.dir;
      s.mean_dir = kPi - s.mean_dir;
    }
    if (p.y < 0.0 || p.y > params_.height) {
      p.y = p.y < 0.0 ? -p.y : 2.0 * params_.height - p.y;
      s.dir = -s.dir;
      s.mean_dir = -s.mean_dir;
    }
    // A step longer than the field could reflect past the far wall; clamp as
    // the final guarantee that positions stay inside the grid's world.
    p.x = std::clamp(p.x, 0.0, params_.width);
    p.y = std::clamp(p.y, 0.0, params_.height);
    nodes_[i]->set_position(p);
  }
  sync_links();
}

}  // namespace mk::net

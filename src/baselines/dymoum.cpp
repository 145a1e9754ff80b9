#include "baselines/dymoum.hpp"

#include <chrono>

#include "protocols/timing.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::baseline {

namespace {

bool seq_newer(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::int16_t>(a - b) > 0;
}

}  // namespace

MonolithicDymo::MonolithicDymo(net::SimNode& node) : node_(node) {
  node_.set_control_handler([this](const net::Frame& f) { on_packet(f); });
  net::ForwardingEngine::Hooks hooks;
  hooks.on_no_route = [this](const net::DataHeader& h) {
    return on_no_route(h);
  };
  hooks.on_route_used = [this](net::Addr d) { on_route_used(d); };
  hooks.on_send_failure = [this](const net::DataHeader& h, net::Addr hop) {
    on_send_failure(h, hop);
  };
  node_.forwarding().set_hooks(std::move(hooks));
}

MonolithicDymo::~MonolithicDymo() {
  stop();
  node_.set_control_handler(nullptr);
  node_.forwarding().clear_hooks();
}

void MonolithicDymo::start() {
  if (running_) return;
  running_ = true;
  sweep_timer_ = std::make_unique<PeriodicTimer>(
      node_.scheduler(), kSweepInterval, [this] { sweep(); }, 0.0,
      node_.addr() + 21);
  sweep_timer_->start();
}

void MonolithicDymo::stop() {
  running_ = false;
  sweep_timer_.reset();
}

bool MonolithicDymo::has_route(net::Addr dest) const {
  auto it = routes_.find(dest);
  return it != routes_.end() && it->second.valid;
}

std::size_t MonolithicDymo::buffered_count() const {
  std::size_t n = 0;
  for (const auto& [_, q] : buffer_) n += q.size();
  return n;
}

void MonolithicDymo::discover(net::Addr target) {
  if (pending_.count(target) > 0) return;
  pending_[target] =
      Pending{1, node_.scheduler().now() + proto::kDymoRreqWaitTime,
              proto::kDymoRreqWaitTime};
  send_rreq(target);
}

// ----------------------------------------------------------------- wire codec
//
// rm   := u8 kind | u32 orig | u16 orig_seq | u32 target | u8 hop_limit |
//         u8 hop_count | u8 n | (u32 addr, u16 seq, u8 hops)*n
// rerr := u8 kind(3) | u32 orig | u16 seq | u8 hop_limit | u8 n |
//         (u32 addr, u16 seq)*n

std::vector<std::uint8_t> MonolithicDymo::encode_rm(
    bool is_rreq, net::Addr orig, std::uint16_t orig_seq, net::Addr target,
    std::uint8_t hop_limit, std::uint8_t hop_count,
    const std::vector<PathNode>& path) {
  ByteWriter w;
  w.put_u8(is_rreq ? kRreq : kRrep);
  w.put_u32(orig);
  w.put_u16(orig_seq);
  w.put_u32(target);
  w.put_u8(hop_limit);
  w.put_u8(hop_count);
  MK_ASSERT(path.size() <= 255);
  w.put_u8(static_cast<std::uint8_t>(path.size()));
  for (const PathNode& p : path) {
    w.put_u32(p.addr);
    w.put_u16(p.seq);
    w.put_u8(p.hops);
  }
  return w.take();
}

void MonolithicDymo::on_packet(const net::Frame& frame) {
  try {
    ByteReader r(frame.payload_view());
    std::uint8_t kind = r.get_u8();
    auto t0 = std::chrono::steady_clock::now();
    if (kind == kRreq || kind == kRrep) {
      handle_rm(r, frame.tx, kind == kRreq);
    } else if (kind == kRerr) {
      handle_rerr(r, frame.tx);
    }
    if (profiling_) {
      auto t1 = std::chrono::steady_clock::now();
      times_[kind == kRerr ? "RERR" : "RM"].add(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  } catch (const BufferUnderflow&) {
    // malformed: drop
  }
}

bool MonolithicDymo::learn(net::Addr dest, std::uint16_t seq,
                           net::Addr next_hop, std::uint8_t hops) {
  if (dest == node_.addr()) return false;
  auto it = routes_.find(dest);
  if (it != routes_.end()) {
    const Route& r = it->second;
    bool improves = seq_newer(seq, r.seq) || (seq == r.seq && !r.valid) ||
                    (seq == r.seq && hops < r.hops);
    if (!improves) {
      if (seq == r.seq && r.valid && r.next_hop == next_hop) {
        it->second.expires =
            node_.scheduler().now() + proto::kDymoRouteTimeout;
      }
      return false;
    }
  }
  routes_[dest] = Route{next_hop, seq, hops, true,
                        node_.scheduler().now() + proto::kDymoRouteTimeout};
  net::RouteEntry entry;
  entry.dest = dest;
  entry.next_hop = next_hop;
  entry.metric = hops;
  entry.installed_at = node_.scheduler().now();
  node_.kernel_table().set_route(entry);
  route_found(dest);
  return true;
}

void MonolithicDymo::route_found(net::Addr dest) {
  pending_.erase(dest);
  auto it = buffer_.find(dest);
  if (it == buffer_.end()) return;
  auto packets = std::move(it->second);
  buffer_.erase(it);
  for (auto& hdr : packets) node_.forwarding().reinject(hdr);
}

void MonolithicDymo::drop_route(net::Addr dest) {
  node_.kernel_table().remove_route(dest);
}

void MonolithicDymo::handle_rm(ByteReader& r, net::Addr from, bool is_rreq) {
  net::Addr orig = r.get_u32();
  std::uint16_t orig_seq = r.get_u16();
  net::Addr target = r.get_u32();
  std::uint8_t hop_limit = r.get_u8();
  std::uint8_t hop_count = r.get_u8();
  std::uint8_t n = r.get_u8();
  std::vector<PathNode> path;
  path.reserve(n);
  for (std::uint8_t i = 0; i < n; ++i) {
    PathNode p;
    p.addr = r.get_u32();
    p.seq = r.get_u16();
    p.hops = r.get_u8();
    path.push_back(p);
  }
  if (orig == node_.addr()) return;

  // Learn routes to the originator and the accumulated path.
  learn(orig, orig_seq, from, static_cast<std::uint8_t>(hop_count + 1));
  for (const PathNode& p : path) {
    if (p.addr == node_.addr() || p.hops > hop_count) continue;
    learn(p.addr, p.seq, from,
          static_cast<std::uint8_t>(hop_count + 1 - p.hops));
  }

  TimePoint now = node_.scheduler().now();
  if (is_rreq) {
    auto key = std::make_pair(orig, orig_seq);
    bool dup = duplicates_.count(key) > 0;
    duplicates_[key] = now;
    if (dup) return;

    if (target == node_.addr()) {
      ++own_seq_;
      auto bytes = encode_rm(false, node_.addr(), own_seq_, orig,
                             proto::kDymoMsgHopLimit, 0, {});
      node_.send_control(std::move(bytes), from);
      return;
    }
    if (hop_limit <= 1) return;
    path.push_back(PathNode{node_.addr(), own_seq_,
                            static_cast<std::uint8_t>(hop_count + 1)});
    auto bytes =
        encode_rm(true, orig, orig_seq, target,
                  static_cast<std::uint8_t>(hop_limit - 1),
                  static_cast<std::uint8_t>(hop_count + 1), path);
    node_.send_control(std::move(bytes));
    return;
  }

  // RREP
  if (target == node_.addr()) return;  // discovery complete (learn() did it)
  auto rit = routes_.find(target);
  if (rit == routes_.end() || !rit->second.valid || hop_limit <= 1) return;
  path.push_back(PathNode{node_.addr(), own_seq_,
                          static_cast<std::uint8_t>(hop_count + 1)});
  auto bytes = encode_rm(false, orig, orig_seq, target,
                         static_cast<std::uint8_t>(hop_limit - 1),
                         static_cast<std::uint8_t>(hop_count + 1), path);
  node_.send_control(std::move(bytes), rit->second.next_hop);
}

void MonolithicDymo::handle_rerr(ByteReader& r, net::Addr from) {
  net::Addr orig = r.get_u32();
  std::uint16_t seq = r.get_u16();
  std::uint8_t hop_limit = r.get_u8();
  std::uint8_t n = r.get_u8();

  auto key = std::make_pair(orig, static_cast<std::uint16_t>(seq | 0x8000u));
  bool dup = duplicates_.count(key) > 0;
  duplicates_[key] = node_.scheduler().now();
  if (dup) return;

  std::vector<std::pair<net::Addr, std::uint16_t>> still;
  for (std::uint8_t i = 0; i < n; ++i) {
    net::Addr dest = r.get_u32();
    std::uint16_t dseq = r.get_u16();
    auto it = routes_.find(dest);
    if (it == routes_.end() || !it->second.valid) continue;
    if (it->second.next_hop != from) continue;
    it->second.valid = false;
    drop_route(dest);
    still.emplace_back(dest, dseq);
  }
  if (!still.empty() && hop_limit > 1) {
    send_rerr(still, static_cast<std::uint8_t>(hop_limit - 1));
  }
}

// -------------------------------------------------------------------- hooks

bool MonolithicDymo::on_no_route(const net::DataHeader& hdr) {
  auto& q = buffer_[hdr.dst];
  if (q.size() >= kBufferPerDest) q.erase(q.begin());
  q.push_back(hdr);
  if (pending_.count(hdr.dst) == 0) {
    pending_[hdr.dst] =
        Pending{1, node_.scheduler().now() + proto::kDymoRreqWaitTime,
                proto::kDymoRreqWaitTime};
    send_rreq(hdr.dst);
  }
  return true;
}

void MonolithicDymo::on_route_used(net::Addr dest) {
  auto it = routes_.find(dest);
  if (it != routes_.end() && it->second.valid) {
    it->second.expires = node_.scheduler().now() + proto::kDymoRouteTimeout;
  }
}

void MonolithicDymo::on_send_failure(const net::DataHeader&, net::Addr hop) {
  std::vector<std::pair<net::Addr, std::uint16_t>> unreachable;
  for (auto& [dest, r] : routes_) {
    if (r.valid && r.next_hop == hop) {
      r.valid = false;
      drop_route(dest);
      unreachable.emplace_back(dest, r.seq);
    }
  }
  if (!unreachable.empty()) send_rerr(unreachable, proto::kDymoRerrHopLimit);
}

// ------------------------------------------------------------------- sending

void MonolithicDymo::send_rreq(net::Addr target) {
  ++own_seq_;
  duplicates_[{node_.addr(), own_seq_}] = node_.scheduler().now();
  auto bytes = encode_rm(true, node_.addr(), own_seq_, target,
                         proto::kDymoMsgHopLimit, 0, {});
  node_.send_control(std::move(bytes));
}

void MonolithicDymo::send_rerr(
    const std::vector<std::pair<net::Addr, std::uint16_t>>& u,
    std::uint8_t hop_limit) {
  ByteWriter w;
  w.put_u8(kRerr);
  w.put_u32(node_.addr());
  w.put_u16(rerr_seq_++);
  w.put_u8(hop_limit);
  MK_ASSERT(u.size() <= 255);
  w.put_u8(static_cast<std::uint8_t>(u.size()));
  for (const auto& [dest, seq] : u) {
    w.put_u32(dest);
    w.put_u16(seq);
  }
  node_.send_control(w.take());
}

void MonolithicDymo::sweep() {
  TimePoint now = node_.scheduler().now();
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second.expires < now) {
      drop_route(it->first);
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = it->second;
    if (p.next_retry > now) {
      ++it;
      continue;
    }
    if (p.tries >= proto::kDymoRreqTries) {
      buffer_.erase(it->first);
      it = pending_.erase(it);
      continue;
    }
    ++p.tries;
    p.backoff = p.backoff * 2;
    p.next_retry = now + p.backoff;
    send_rreq(it->first);
    ++it;
  }
  for (auto it = duplicates_.begin(); it != duplicates_.end();) {
    it = (now - it->second > proto::kDymoDupHoldTime) ? duplicates_.erase(it)
                                                      : std::next(it);
  }
}

}  // namespace mk::baseline

#include "baselines/olsrd.hpp"

#include <chrono>
#include <queue>

#include "protocols/timing.hpp"
#include "util/assert.hpp"
#include "util/bytebuffer.hpp"
#include "util/log.hpp"

namespace mk::baseline {

namespace {

constexpr std::uint8_t kCodeAsym = 0;
constexpr std::uint8_t kCodeSym = 1;
constexpr std::uint8_t kCodeLost = 2;
constexpr std::uint8_t kCodeMpr = 3;

bool seq_newer(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::int16_t>(a - b) > 0;
}

}  // namespace

MonolithicOlsr::MonolithicOlsr(net::SimNode& node) : node_(node) {
  node_.set_control_handler([this](const net::Frame& f) { on_packet(f); });
}

MonolithicOlsr::~MonolithicOlsr() {
  stop();
  node_.set_control_handler(nullptr);
}

void MonolithicOlsr::start() {
  if (running_) return;
  running_ = true;
  auto& sched = node_.scheduler();
  hello_timer_ = std::make_unique<PeriodicTimer>(
      sched, proto::kHelloInterval, [this] { send_hello(); }, 0.1,
      node_.addr());
  tc_timer_ = std::make_unique<PeriodicTimer>(
      sched, proto::kTcInterval, [this] { send_tc(); }, 0.1,
      node_.addr() + 7);
  maint_timer_ = std::make_unique<PeriodicTimer>(
      sched, proto::kHelloInterval, [this] { maintenance(); }, 0.0,
      node_.addr() + 13);
  hello_timer_->start();
  tc_timer_->start();
  maint_timer_->start();
}

void MonolithicOlsr::stop() {
  running_ = false;
  hello_timer_.reset();
  tc_timer_.reset();
  maint_timer_.reset();
}

std::set<net::Addr> MonolithicOlsr::sym_neighbors() const {
  std::set<net::Addr> out;
  for (const auto& [a, n] : neighbors_) {
    if (n.symmetric) out.insert(a);
  }
  return out;
}

std::set<net::Addr> MonolithicOlsr::mpr_selectors() const {
  std::set<net::Addr> out;
  for (const auto& [a, n] : neighbors_) {
    if (n.selected_us && n.symmetric) out.insert(a);
  }
  return out;
}

// ------------------------------------------------------------------ receive

void MonolithicOlsr::on_packet(const net::Frame& frame) {
  try {
    auto bytes = frame.payload_view();
    ByteReader r(bytes);
    std::uint16_t len = r.get_u16();
    if (len != bytes.size()) return;
    (void)r.get_u16();  // packet seq (unused)
    while (r.remaining() > 0) {
      std::size_t msg_start = r.position();
      MsgHeader h;
      h.type = r.get_u8();
      std::uint16_t size = r.get_u16();
      h.orig = r.get_u32();
      h.ttl = r.get_u8();
      h.hops = r.get_u8();
      h.seq = r.get_u16();
      std::size_t header_len = r.position() - msg_start;
      if (size < header_len) return;
      ByteReader payload = r.slice(size - header_len);

      auto t0 = std::chrono::steady_clock::now();
      if (h.type == kHello) {
        handle_hello(h, payload, frame.tx);
      } else if (h.type == kTc) {
        std::vector<std::uint8_t> raw(
            bytes.begin() + static_cast<std::ptrdiff_t>(msg_start),
            bytes.begin() + static_cast<std::ptrdiff_t>(msg_start + size));
        handle_tc(h, payload, frame.tx, std::move(raw));
      }
      if (profiling_) {
        auto t1 = std::chrono::steady_clock::now();
        times_[h.type == kHello ? "HELLO" : "TC"].add(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    }
  } catch (const BufferUnderflow&) {
    // malformed packet: drop
  }
}

void MonolithicOlsr::handle_hello(const MsgHeader& h, ByteReader& r,
                                  net::Addr from) {
  if (h.orig == node_.addr()) return;
  Neighbor& nb = neighbors_[from];
  nb.last_heard = node_.scheduler().now();
  nb.willingness = r.get_u8();
  std::uint8_t count = r.get_u8();

  bool listed = false;
  bool lost = false;
  bool selected = false;
  std::set<net::Addr> two_hop;
  for (std::uint8_t i = 0; i < count; ++i) {
    std::uint8_t code = r.get_u8();
    net::Addr a = r.get_u32();
    if (a == node_.addr()) {
      listed = true;
      lost = (code == kCodeLost);
      selected = (code == kCodeMpr);
    } else if (code == kCodeSym || code == kCodeMpr) {
      two_hop.insert(a);
    }
  }
  if (lost) {
    neighbors_.erase(from);
    recompute_mprs();
    recompute_routes();
    return;
  }
  // MPRs and routes read only symmetry and 2-hop sets: a HELLO that leaves
  // both as they were changes neither.
  bool changed = nb.symmetric != listed || nb.two_hop != two_hop;
  nb.symmetric = listed;
  nb.selected_us = selected;
  nb.two_hop = std::move(two_hop);
  if (changed) {
    recompute_mprs();
    recompute_routes();
  }
}

void MonolithicOlsr::handle_tc(const MsgHeader& h, ByteReader& r,
                               net::Addr from,
                               std::vector<std::uint8_t> raw_msg) {
  if (h.orig == node_.addr()) return;
  auto it = neighbors_.find(from);
  if (it == neighbors_.end() || !it->second.symmetric) return;

  TimePoint now = node_.scheduler().now();
  auto key = std::make_pair(static_cast<net::Addr>(h.orig), h.seq);
  bool dup = duplicates_.count(key) > 0;
  duplicates_[key] = now;

  if (!dup) {
    std::uint16_t ansn = r.get_u16();
    std::uint8_t count = r.get_u8();
    std::set<net::Addr> advertised;
    for (std::uint8_t i = 0; i < count; ++i) advertised.insert(r.get_u32());

    auto tit = topology_.find(h.orig);
    if (tit == topology_.end()) {
      topology_[h.orig] =
          TopoEntry{ansn, std::move(advertised), now + proto::kTopHoldTime};
      recompute_routes();
    } else if (!seq_newer(tit->second.ansn, ansn)) {
      // A refresh of the same set only moves the ANSN and the expiry.
      TopoEntry& e = tit->second;
      e.ansn = ansn;
      e.expires = now + proto::kTopHoldTime;
      if (e.advertised != advertised) {
        e.advertised = std::move(advertised);
        recompute_routes();
      }
    }
    forward_tc(h, raw_msg, from);
  }
}

// ------------------------------------------------------------------- sending

void MonolithicOlsr::send_hello() {
  ByteWriter w;
  std::size_t len_slot = w.reserve_u16();
  w.put_u16(pkt_seq_++);

  w.put_u8(kHello);
  std::size_t size_slot = w.reserve_u16();
  std::size_t msg_start = w.size() - 3;
  w.put_u32(node_.addr());
  w.put_u8(1);  // ttl: HELLOs never forwarded
  w.put_u8(0);
  w.put_u16(msg_seq_++);
  w.put_u8(3);  // willingness (default)
  MK_ASSERT(neighbors_.size() <= 255);
  w.put_u8(static_cast<std::uint8_t>(neighbors_.size()));
  for (const auto& [a, n] : neighbors_) {
    std::uint8_t code = kCodeAsym;
    if (n.symmetric) code = mprs_.count(a) > 0 ? kCodeMpr : kCodeSym;
    w.put_u8(code);
    w.put_u32(a);
  }
  w.patch_u16(size_slot, static_cast<std::uint16_t>(w.size() - msg_start));
  w.patch_u16(len_slot, static_cast<std::uint16_t>(w.size()));
  node_.send_control(w.take());
}

void MonolithicOlsr::send_tc() {
  std::set<net::Addr> selectors = mpr_selectors();
  if (selectors.empty() && last_advertised_.empty()) return;
  if (selectors != last_advertised_) {
    ++ansn_;
    last_advertised_ = selectors;
  }

  ByteWriter w;
  std::size_t len_slot = w.reserve_u16();
  w.put_u16(pkt_seq_++);

  w.put_u8(kTc);
  std::size_t size_slot = w.reserve_u16();
  std::size_t msg_start = w.size() - 3;
  w.put_u32(node_.addr());
  w.put_u8(255);
  w.put_u8(0);
  std::uint16_t seq = msg_seq_++;
  w.put_u16(seq);
  w.put_u16(ansn_);
  w.put_u8(static_cast<std::uint8_t>(selectors.size()));
  for (net::Addr a : selectors) w.put_u32(a);
  w.patch_u16(size_slot, static_cast<std::uint16_t>(w.size() - msg_start));
  w.patch_u16(len_slot, static_cast<std::uint16_t>(w.size()));

  duplicates_[{node_.addr(), seq}] = node_.scheduler().now();
  node_.send_control(w.take());
}

void MonolithicOlsr::forward_tc(const MsgHeader& h,
                                const std::vector<std::uint8_t>& raw,
                                net::Addr from) {
  // MPR flooding: retransmit only if the previous hop selected us.
  auto it = neighbors_.find(from);
  if (it == neighbors_.end() || !it->second.selected_us) return;
  if (h.ttl <= 1) return;

  std::vector<std::uint8_t> msg = raw;
  msg[7] = static_cast<std::uint8_t>(h.ttl - 1);   // ttl offset in header
  msg[8] = static_cast<std::uint8_t>(h.hops + 1);  // hop count

  ByteWriter w;
  std::size_t len_slot = w.reserve_u16();
  w.put_u16(pkt_seq_++);
  w.put_bytes(msg);
  w.patch_u16(len_slot, static_cast<std::uint16_t>(w.size()));
  node_.send_control(w.take());
}

void MonolithicOlsr::maintenance() {
  TimePoint now = node_.scheduler().now();
  bool changed = false;
  for (auto it = neighbors_.begin(); it != neighbors_.end();) {
    if (now - it->second.last_heard > proto::kNeighbHoldTime) {
      it = neighbors_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  for (auto it = topology_.begin(); it != topology_.end();) {
    if (it->second.expires < now) {
      it = topology_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  for (auto it = duplicates_.begin(); it != duplicates_.end();) {
    it = (now - it->second > proto::kDupHoldTime) ? duplicates_.erase(it)
                                                   : std::next(it);
  }
  if (changed) {
    recompute_mprs();
    recompute_routes();
  }
}

// ------------------------------------------------------------------ algorithms

void MonolithicOlsr::recompute_mprs() {
  std::set<net::Addr> mprs;
  std::set<net::Addr> uncovered;
  for (const auto& [a, n] : neighbors_) {
    if (!n.symmetric) continue;
    for (net::Addr t : n.two_hop) {
      if (t == node_.addr()) continue;
      auto nit = neighbors_.find(t);
      if (nit != neighbors_.end() && nit->second.symmetric) continue;
      uncovered.insert(t);
    }
  }
  while (!uncovered.empty()) {
    net::Addr best = net::kNoAddr;
    std::size_t best_cover = 0;
    for (const auto& [a, n] : neighbors_) {
      if (!n.symmetric || mprs.count(a) > 0) continue;
      std::size_t c = 0;
      for (net::Addr t : n.two_hop) {
        if (uncovered.count(t) > 0) ++c;
      }
      if (c > best_cover || (c == best_cover && c > 0 && a < best)) {
        best = a;
        best_cover = c;
      }
    }
    if (best == net::kNoAddr || best_cover == 0) break;
    mprs.insert(best);
    for (net::Addr t : neighbors_[best].two_hop) uncovered.erase(t);
  }
  mprs_ = std::move(mprs);
}

void MonolithicOlsr::recompute_routes() {
  ++route_recomputes_;
  net::Addr self = node_.addr();
  std::map<net::Addr, std::set<net::Addr>> adj;
  auto add_edge = [&adj](net::Addr a, net::Addr b) {
    adj[a].insert(b);
    adj[b].insert(a);
  };
  for (const auto& [a, n] : neighbors_) {
    if (!n.symmetric) continue;
    add_edge(self, a);
    for (net::Addr t : n.two_hop) {
      if (t != self) add_edge(a, t);
    }
  }
  for (const auto& [origin, e] : topology_) {
    for (net::Addr d : e.advertised) add_edge(origin, d);
  }

  // BFS (hop metric).
  std::map<net::Addr, net::Addr> parent;
  std::map<net::Addr, std::uint32_t> hops;
  std::queue<net::Addr> q;
  q.push(self);
  hops[self] = 0;
  while (!q.empty()) {
    net::Addr u = q.front();
    q.pop();
    for (net::Addr v : adj[u]) {
      if (hops.count(v) > 0) continue;
      hops[v] = hops[u] + 1;
      parent[v] = u;
      q.push(v);
    }
  }

  net::KernelRouteTable& kernel = node_.kernel_table();
  std::set<net::Addr> fresh;
  for (const auto& [dest, _] : hops) {
    if (dest == self) continue;
    net::Addr hop = dest;
    while (parent.count(hop) > 0 && parent[hop] != self) hop = parent[hop];
    if (parent.count(hop) == 0) continue;
    net::RouteEntry entry;
    entry.dest = dest;
    entry.next_hop = hop;
    entry.metric = hops[dest];
    entry.installed_at = node_.scheduler().now();
    kernel.set_route(entry);
    fresh.insert(dest);
  }
  for (net::Addr old_dest : installed_) {
    if (fresh.count(old_dest) == 0) kernel.remove_route(old_dest);
  }
  installed_ = std::move(fresh);
}

}  // namespace mk::baseline

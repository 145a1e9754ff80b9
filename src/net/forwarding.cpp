#include "net/forwarding.hpp"

#include "util/log.hpp"

namespace mk::net {

ForwardingEngine::ForwardingEngine(NetworkDevice& device,
                                   KernelRouteTable& table, Scheduler& sched)
    : device_(device), table_(table), sched_(sched) {}

bool ForwardingEngine::send(Addr dst, std::uint16_t payload_size,
                            std::uint8_t ttl) {
  if (!device_.is_up()) {
    // A crashed node originates nothing: no route lookup, no discovery
    // request into protocols that may be stopped.
    ++stats_.send_failures;
    return false;
  }
  DataHeader hdr;
  hdr.src = self();
  hdr.dst = dst;
  hdr.seq = next_seq_++;
  hdr.ttl = ttl;
  hdr.payload_size = payload_size;
  hdr.sent_at = sched_.now();
  ++stats_.originated;

  if (dst == self()) {
    ++stats_.delivered;
    if (deliver_) deliver_(hdr);
    return true;
  }
  return route_and_send(hdr, /*originating=*/true);
}

bool ForwardingEngine::reinject(DataHeader hdr) {
  return route_and_send(hdr, /*originating=*/false);
}

bool ForwardingEngine::route_and_send(DataHeader hdr, bool originating) {
  auto route = table_.lookup(hdr.dst);
  if (!route) {
    if (hooks_.on_no_route && hooks_.on_no_route(hdr)) {
      ++stats_.buffered;
      return true;
    }
    ++stats_.dropped_no_route;
    MK_TRACE("fwd", "no route to ", pbb::addr_to_string(hdr.dst), " at ",
             pbb::addr_to_string(self()));
    return false;
  }

  Frame frame;
  frame.rx = route->next_hop;
  frame.kind = FrameKind::kData;
  frame.data = hdr;
  if (!device_.send(std::move(frame))) {
    ++stats_.send_failures;
    if (hooks_.on_send_failure) hooks_.on_send_failure(hdr, route->next_hop);
    return false;
  }
  if (hooks_.on_route_used) hooks_.on_route_used(hdr.dst);
  if (!originating) ++stats_.forwarded;
  return true;
}

void ForwardingEngine::handle_frame(const Frame& frame) {
  DataHeader hdr = frame.data;
  if (hdr.dst == self()) {
    ++stats_.delivered;
    if (deliver_) deliver_(hdr);
    return;
  }
  if (hdr.ttl <= 1) {
    ++stats_.dropped_ttl;
    return;
  }
  hdr.ttl -= 1;
  route_and_send(hdr, /*originating=*/false);
}

}  // namespace mk::net

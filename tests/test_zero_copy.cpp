// Regression tests for the zero-copy hot path: copy-on-write event messages,
// shared frame payload buffers, and single-allocation PacketBB serialization.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/manetkit.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "net/payload_pool.hpp"
#include "packetbb/packetbb.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/scheduler.hpp"

namespace mk {
namespace {

pbb::Message sample_msg(std::uint8_t type = 42) {
  pbb::Message m;
  m.type = type;
  m.originator = 7;
  m.seqnum = 99;
  m.has_hops = true;
  m.hop_limit = 16;
  m.hop_count = 2;
  m.tlvs.push_back(pbb::Tlv::u16(5, 1234));
  pbb::AddressBlock block;
  block.add_with_u32(11, 9, 777);
  m.addr_blocks.push_back(std::move(block));
  return m;
}

// ---------------------------------------------------------------------------
// Event COW semantics
// ---------------------------------------------------------------------------

TEST(CowEvent, CopiesShareOneMessageAllocation) {
  ev::Event a(ev::etype("ZC"));
  a.set_msg(sample_msg());
  ev::Event b = a;
  ev::Event c = a;
  EXPECT_EQ(a.msg(), b.msg());
  EXPECT_EQ(a.msg(), c.msg());
  EXPECT_EQ(a.shared_msg().use_count(), 3);
}

TEST(CowEvent, MutatingOneCopyDoesNotLeakIntoSiblings) {
  ev::Event a(ev::etype("ZC"));
  a.set_msg(sample_msg());
  ev::Event b = a;

  pbb::Message& owned = b.mutable_msg();
  owned.hop_limit -= 1;
  owned.hop_count += 1;

  EXPECT_NE(a.msg(), b.msg()) << "mutable_msg must clone while shared";
  EXPECT_EQ(a.msg()->hop_limit, 16);
  EXPECT_EQ(a.msg()->hop_count, 2);
  EXPECT_EQ(b.msg()->hop_limit, 15);
  EXPECT_EQ(b.msg()->hop_count, 3);
}

TEST(CowEvent, MutableMsgOnUniqueOwnerDoesNotClone) {
  ev::Event e(ev::etype("ZC"));
  e.set_msg(sample_msg());
  const pbb::Message* before = e.msg();
  e.mutable_msg().hop_count += 1;
  EXPECT_EQ(e.msg(), before) << "sole owner must mutate in place";
}

TEST(CowEvent, SetMsgReturnsMutableRefToOwnedCopy) {
  ev::Event in(ev::etype("ZC"));
  in.set_msg(sample_msg());

  // The relay idiom: forward a received message with decremented TTL.
  ev::Event out(ev::etype("ZC"));
  pbb::Message& fwd = out.set_msg(*in.msg());
  fwd.hop_limit -= 1;

  EXPECT_EQ(in.msg()->hop_limit, 16);
  EXPECT_EQ(out.msg()->hop_limit, 15);
}

TEST(CowEvent, SharedMsgHandoffIsZeroCopy) {
  ev::Event in(ev::etype("ZC"));
  in.set_msg(sample_msg());
  ev::Event out(ev::etype("ZC_OUT"));
  out.set_msg(in.shared_msg());
  EXPECT_EQ(in.msg(), out.msg());
}

// Fan-out through the Framework Manager: a handler that copies + mutates its
// own event must not corrupt what sibling protocols observe.
TEST(CowEvent, FanOutSiblingsAreIsolatedFromHandlerMutation) {
  SimScheduler sched;
  net::SimMedium medium(sched);
  net::SimNode node(0, medium, sched);
  core::Manetkit kit(node);

  class MutatingHandler final : public core::EventHandler {
   public:
    MutatingHandler()
        : core::EventHandler("test.MutatingHandler", {"ZC"}) {}
    void handle(const ev::Event& event, core::ProtocolContext&) override {
      ev::Event local = event;  // shares the message...
      local.mutable_msg().hop_limit = 0;  // ...until mutated
    }
  };
  class ObservingHandler final : public core::EventHandler {
   public:
    explicit ObservingHandler(std::vector<std::uint8_t>* seen)
        : core::EventHandler("test.ObservingHandler", {"ZC"}), seen_(seen) {}
    void handle(const ev::Event& event, core::ProtocolContext&) override {
      seen_->push_back(event.msg()->hop_limit);
    }
   private:
    std::vector<std::uint8_t>* seen_;
  };

  std::vector<std::uint8_t> seen;
  kit.register_protocol("mutator", 20, [](core::Manetkit& k) {
    auto cf = std::make_unique<core::ManetProtocolCf>(
        "mutator", k.scheduler(), k.self(), &k.system().sys_state());
    cf->add_handler(std::make_unique<MutatingHandler>());
    cf->declare_events({"ZC"}, {});
    return cf;
  });
  kit.register_protocol("observer", 20, [&seen](core::Manetkit& k) {
    auto cf = std::make_unique<core::ManetProtocolCf>(
        "observer", k.scheduler(), k.self(), &k.system().sys_state());
    cf->add_handler(std::make_unique<ObservingHandler>(&seen));
    cf->declare_events({"ZC"}, {});
    return cf;
  });
  kit.deploy("mutator");
  kit.deploy("observer");

  ev::Event e(ev::etype("ZC"));
  e.set_msg(sample_msg());
  kit.system().emit(e);
  kit.system().emit(e);

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 16) << "mutator's private copy leaked into a sibling";
  EXPECT_EQ(seen[1], 16);
  EXPECT_EQ(e.msg()->hop_limit, 16) << "emitter's event must stay intact";
}

// ---------------------------------------------------------------------------
// Shared frame payloads
// ---------------------------------------------------------------------------

TEST(SharedPayload, BroadcastDeliversTheSameBufferToEveryNeighbor) {
  SimScheduler sched;
  net::SimMedium medium(sched);
  net::SimNode sender(0, medium, sched);

  constexpr std::uint32_t kNeighbors = 4;
  std::vector<std::unique_ptr<net::SimNode>> receivers;
  std::vector<net::PayloadPtr> delivered;
  for (std::uint32_t i = 1; i <= kNeighbors; ++i) {
    receivers.push_back(std::make_unique<net::SimNode>(i, medium, sched));
    receivers.back()->set_control_handler([&delivered](const net::Frame& f) {
      delivered.push_back(f.payload);
    });
    medium.set_link(sender.addr(), receivers.back()->addr(), true);
  }

  auto payload = net::make_payload(net::PayloadBuffer{1, 2, 3, 4, 5});
  ASSERT_TRUE(sender.send_control(payload));
  sched.run_all();

  ASSERT_EQ(delivered.size(), kNeighbors);
  for (const auto& p : delivered) {
    EXPECT_EQ(p.get(), payload.get())
        << "broadcast fan-out must share one payload allocation";
  }
}

TEST(SharedPayload, PayloadViewIsEmptyWhenUnset) {
  net::Frame f;
  EXPECT_EQ(f.payload_size(), 0u);
  EXPECT_TRUE(f.payload_view().empty());
}

// ---------------------------------------------------------------------------
// Shared received messages: one decode per broadcast payload
// ---------------------------------------------------------------------------

constexpr std::uint8_t kRxType = 77;

/// One bare sender and k Manetkit receivers in its range. Each receiver
/// registers kRxType as "ZRX" and deploys a protocol whose handler passes
/// every ZRX_IN event to `on_rx` with the receiver's index (on the CF's own
/// thread when `dedicated`).
struct RxWorld {
  using OnRx = std::function<void(std::size_t receiver, const ev::Event&)>;

  class RxHandler final : public core::EventHandler {
   public:
    RxHandler(RxWorld& world, std::size_t index)
        : core::EventHandler("test.RxHandler", {"ZRX_IN"}),
          world_(world),
          index_(index) {}
    void handle(const ev::Event& event, core::ProtocolContext&) override {
      world_.on_rx(index_, event);
    }

   private:
    RxWorld& world_;
    std::size_t index_;
  };

  SimScheduler sched;
  net::SimMedium medium{sched};
  net::SimNode sender{0, medium, sched};
  std::vector<std::unique_ptr<net::SimNode>> nodes;
  std::vector<std::unique_ptr<core::Manetkit>> kits;
  std::vector<core::ManetProtocolCf*> cfs;
  OnRx on_rx = [](std::size_t, const ev::Event&) {};

  explicit RxWorld(std::size_t k, bool dedicated = false) {
    for (std::uint32_t i = 0; i < k; ++i) {
      nodes.push_back(std::make_unique<net::SimNode>(i + 1, medium, sched));
      medium.set_link(sender.addr(), nodes.back()->addr(), true);
      kits.push_back(std::make_unique<core::Manetkit>(*nodes.back()));
      core::Manetkit& kit = *kits.back();
      kit.system().register_message(kRxType, "ZRX");
      kit.register_protocol("rx", 20, [this, i](core::Manetkit& kt) {
        auto cf = std::make_unique<core::ManetProtocolCf>(
            "rx", kt.scheduler(), kt.self(), &kt.system().sys_state());
        cf->add_handler(std::make_unique<RxHandler>(*this, i));
        cf->declare_events({"ZRX_IN"}, {});
        return cf;
      });
      cfs.push_back(kit.deploy("rx"));
      if (dedicated) cfs.back()->enable_dedicated_thread();
    }
  }
  ~RxWorld() {
    for (core::ManetProtocolCf* cf : cfs) cf->disable_dedicated_thread();
  }

  /// Serializes `pkt` into a pooled payload, broadcasts it and runs the
  /// world until every receiver has it.
  void broadcast(const pbb::Packet& pkt) {
    auto buf = net::acquire_payload();
    pbb::serialize_into(pkt, *buf);
    sender.send_control(net::PayloadPtr(std::move(buf)));
    sched.run_all();
    for (auto& kit : kits) kit->manager().drain();
  }
};

pbb::Packet rx_packet() {
  pbb::Packet pkt;
  pkt.tlvs.push_back(pbb::Tlv::u8(9, 1));
  pkt.messages.push_back(sample_msg(kRxType));
  return pkt;
}

TEST(SystemRx, BroadcastReceiversShareOneDecode) {
  constexpr std::size_t kReceivers = 4;
  RxWorld w(kReceivers);
  std::vector<ev::MsgPtr> seen(kReceivers);
  std::vector<int> hop_limit(kReceivers, -1);
  std::vector<int> tlvs(kReceivers, 0);
  for (std::size_t i = 0; i < kReceivers; ++i) {
    w.kits[i]->system().set_packet_tlv_observer(
        [&tlvs, i](const pbb::Tlv&, net::Addr) { ++tlvs[i]; });
  }
  w.on_rx = [&](std::size_t i, const ev::Event& e) {
    seen[i] = e.shared_msg();
    hop_limit[i] = e.msg()->hop_limit;
    if (i == 0) {  // the first receiver edits its own copy
      ev::Event mine = e;
      mine.mutable_msg().hop_limit = 0;
      EXPECT_NE(mine.msg(), e.msg()) << "a shared message must be cloned";
    }
  };

  w.broadcast(rx_packet());
  for (std::size_t i = 0; i < kReceivers; ++i) {
    ASSERT_NE(seen[i], nullptr) << "receiver " << i;
    EXPECT_EQ(seen[i].get(), seen[0].get())
        << "receiver " << i << " got its own decode";
    EXPECT_EQ(hop_limit[i], 16) << "receiver " << i << " saw another's edit";
    EXPECT_EQ(tlvs[i], 1) << "packet TLV observer runs once per receiver";
    EXPECT_EQ(w.kits[i]->system().frames_received(), 1u);
  }
  EXPECT_EQ(*seen[0], sample_msg(kRxType));

  // A malformed payload fails every receiver's parse, and each counts it.
  std::vector<std::uint64_t> errors;
  for (auto& kit : w.kits) errors.push_back(kit->system().parse_errors());
  w.sender.send_control(net::make_payload(net::PayloadBuffer{0xFF, 0x00}));
  w.sched.run_all();
  for (std::size_t i = 0; i < kReceivers; ++i) {
    EXPECT_EQ(w.kits[i]->system().parse_errors(), errors[i] + 1);
    EXPECT_EQ(w.kits[i]->system().frames_received(), 2u);
    EXPECT_EQ(tlvs[i], 1);
  }
}

// The payload pool hands a released buffer to the next transmission, at the
// same address: a decode cached under that address alone would hand B's
// receivers A's messages.
TEST(SystemRx, RecycledPayloadIsDecodedAfresh) {
  mem::BackendGuard backend(mem::MemBackend::kPool);
  RxWorld w(3);
  std::vector<std::uint16_t> seqs;
  w.on_rx = [&](std::size_t, const ev::Event& e) {
    seqs.push_back(*e.msg()->seqnum);
  };

  pbb::Packet a = rx_packet();
  w.broadcast(a);
  pbb::Packet b = a;
  b.messages[0].seqnum = 100;
  w.broadcast(b);
  EXPECT_EQ(seqs, (std::vector<std::uint16_t>{99, 99, 99, 100, 100, 100}));
}

// Receivers whose protocol runs on a dedicated thread share one decoded
// message across threads; each edits a copy-on-write clone while the
// others read the original.
TEST(Concurrency, SharedRxMessageUnderDedicatedThread) {
  constexpr std::size_t kReceivers = 4;
  constexpr int kRounds = 200;
  RxWorld w(kReceivers, /*dedicated=*/true);
  std::atomic<int> handled{0};
  std::atomic<int> corrupted{0};
  w.on_rx = [&](std::size_t i, const ev::Event& e) {
    const std::uint16_t seq = *e.msg()->seqnum;
    ev::Event mine = e;
    pbb::Message& own = mine.mutable_msg();
    own.hop_limit = static_cast<std::uint8_t>(i + 1);
    own.seqnum = static_cast<std::uint16_t>(seq + 1);
    if (e.msg()->hop_limit != 16 || *e.msg()->seqnum != seq ||
        mine.msg() == e.msg()) {
      ++corrupted;
    }
    ++handled;
  };

  pbb::Packet pkt = rx_packet();
  for (int round = 0; round < kRounds; ++round) {
    pkt.messages[0].seqnum = static_cast<std::uint16_t>(round);
    auto buf = net::acquire_payload();
    pbb::serialize_into(pkt, *buf);
    w.sender.send_control(net::PayloadPtr(std::move(buf)));
    w.sched.run_all();  // threads may still be busy with earlier rounds
  }
  for (auto& kit : w.kits) kit->manager().drain();
  EXPECT_EQ(handled.load(), static_cast<int>(kReceivers) * kRounds);
  EXPECT_EQ(corrupted.load(), 0);
}

// ---------------------------------------------------------------------------
// Single-allocation PacketBB serialization
// ---------------------------------------------------------------------------

pbb::Packet random_packet(Rng& rng) {
  pbb::Packet pkt;
  pkt.version = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  if (rng.bernoulli(0.5)) {
    pkt.seqnum = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  }
  auto random_tlv = [&rng] {
    pbb::Tlv t;
    t.type = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    t.value.resize(static_cast<std::size_t>(rng.uniform_int(0, 24)));
    for (auto& b : t.value) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    return t;
  };
  for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
    pkt.tlvs.push_back(random_tlv());
  }
  for (std::int64_t m = rng.uniform_int(0, 4); m > 0; --m) {
    pbb::Message msg;
    msg.type = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (rng.bernoulli(0.7)) {
      msg.originator = static_cast<pbb::Addr>(rng.next_u64());
    }
    if (rng.bernoulli(0.7)) {
      msg.has_hops = true;
      msg.hop_limit = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      msg.hop_count = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    if (rng.bernoulli(0.7)) {
      msg.seqnum = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    }
    for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
      msg.tlvs.push_back(random_tlv());
    }
    for (std::int64_t b = rng.uniform_int(0, 2); b > 0; --b) {
      pbb::AddressBlock block;
      auto naddrs = static_cast<std::size_t>(rng.uniform_int(1, 8));
      for (std::size_t i = 0; i < naddrs; ++i) {
        block.addrs.push_back(static_cast<pbb::Addr>(rng.next_u64()));
      }
      for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i) {
        pbb::AddressTlv at;
        at.type = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        at.index_start =
            static_cast<std::uint8_t>(rng.uniform_int(0, naddrs - 1));
        at.index_stop = static_cast<std::uint8_t>(
            rng.uniform_int(at.index_start, naddrs - 1));
        at.value.resize(static_cast<std::size_t>(rng.uniform_int(0, 12)));
        for (auto& byte : at.value) {
          byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        block.tlvs.push_back(std::move(at));
      }
      msg.addr_blocks.push_back(std::move(block));
    }
    pkt.messages.push_back(std::move(msg));
  }
  return pkt;
}

TEST(PacketBBZeroCopy, RandomizedSerializeParseIdentity) {
  Rng rng(20260806);
  for (int round = 0; round < 200; ++round) {
    pbb::Packet pkt = random_packet(rng);
    auto bytes = pbb::serialize(pkt);
    ASSERT_EQ(bytes.size(), pbb::serialized_size(pkt))
        << "sizing pass disagrees with emission (round " << round << ")";
    auto parsed = pbb::parse(bytes);
    ASSERT_TRUE(parsed.has_value()) << parsed.error() << " (round " << round << ")";
    EXPECT_EQ(parsed.value(), pkt) << "round-trip mismatch (round " << round << ")";
  }
}

TEST(PacketBBZeroCopy, SerializeIntoRecyclesTheBuffer) {
  Rng rng(7);
  pbb::Packet big = random_packet(rng);
  while (big.messages.empty()) big = random_packet(rng);

  std::vector<std::uint8_t> buf;
  pbb::serialize_into(big, buf);
  EXPECT_EQ(buf, pbb::serialize(big));

  const std::size_t warm_capacity = buf.capacity();
  const void* warm_data = buf.data();
  pbb::serialize_into(big, buf);  // same packet: capacity must be reused
  EXPECT_EQ(buf.capacity(), warm_capacity);
  EXPECT_EQ(static_cast<const void*>(buf.data()), warm_data);
  EXPECT_EQ(buf, pbb::serialize(big));
}

TEST(PacketBBZeroCopy, SerializeReservesExactly) {
  pbb::Packet pkt;
  pkt.seqnum = 5;
  pkt.messages.push_back(sample_msg());
  auto bytes = pbb::serialize(pkt);
  EXPECT_EQ(bytes.size(), pbb::serialized_size(pkt));
  EXPECT_EQ(bytes.capacity(), pbb::serialized_size(pkt))
      << "serialize must allocate the exact wire size once";
}

}  // namespace
}  // namespace mk

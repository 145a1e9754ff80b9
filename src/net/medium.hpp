// The simulated wireless medium.
//
// Reproduces the paper's testbed arrangement: all nodes share one broadcast
// channel, and multi-hop topology is *emulated* by MAC-level filtering
// (MobiEmu style) — i.e. an adjacency relation decides which transmissions a
// node can hear. Links carry configurable propagation delay, per-byte
// transmission delay and loss probability.
//
// Unicast transmissions to a node that is not currently adjacent fail; the
// medium reports this to the sender synchronously (the link-layer feedback a
// real driver gives after exhausting MAC retries).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "net/address.hpp"
#include "net/frame.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "packetbb/message_pool.hpp"
#include "util/rng.hpp"
#include "util/scheduler.hpp"

namespace mk::net {

class NetworkDevice;

/// Traffic-counter snapshot, split by frame kind (control overhead is a
/// headline metric for flooding ablations). The live counts are atomic
/// obs::Counters on the medium's metrics registry — executor worker threads
/// transmit concurrently, and plain ints under-counted there — so stats()
/// materializes this plain struct from a consistent set of relaxed loads.
struct MediumStats {
  std::uint64_t control_frames = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t data_frames = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_fault = 0;      // injected fault (loss burst etc.)
  std::uint64_t dropped_link_lost = 0;  // link dropped while frame in flight
  std::uint64_t dropped_node_down = 0;  // receiver down at delivery time
  std::uint64_t failed_unicasts = 0;
  std::uint64_t link_flips = 0;  // link churn: every up/down transition
  std::uint64_t pair_evals = 0;  // range-link pair tests (topology builders)
};

/// Per-delivery verdict from an installed fault filter (see
/// SimMedium::set_fault_filter). The default verdict is "deliver normally".
struct FaultVerdict {
  bool drop = false;              // journaled as kFrameDrop / kFaultLoss
  std::uint32_t duplicates = 0;   // extra copies delivered after the original
  Duration dup_spacing{};         // gap between successive duplicates
  Duration extra_delay{};         // reorder jitter added to this delivery
};

class SimMedium {
 public:
  SimMedium(Scheduler& sched, std::uint64_t seed = 42);

  Scheduler& scheduler() { return sched_; }

  // -- attachment -------------------------------------------------------------
  void attach(NetworkDevice& device);
  void detach(Addr addr);

  // -- topology control (MAC-level filter emulation) ---------------------------
  /// Makes a<->b (symmetric) or a->b (directed) adjacent.
  void set_link(Addr a, Addr b, bool up, bool symmetric = true);
  bool has_link(Addr from, Addr to) const;
  void clear_links();

  /// Current neighbours of `a`, sorted ascending. Returns a view into the
  /// flat adjacency store (empty if unknown) — valid until the next topology
  /// mutation; copy it if you need it across set_link/clear_links calls.
  std::span<const Addr> neighbors_of(Addr a) const;

  /// Observer invoked on every link state change (used for link-layer
  /// feedback based neighbour detection).
  using LinkObserver = std::function<void(Addr a, Addr b, bool up)>;
  void add_link_observer(LinkObserver obs) {
    link_observers_.push_back(std::move(obs));
  }

  // -- channel parameters ------------------------------------------------------
  void set_base_delay(Duration d) { base_delay_ = d; }
  /// Uniform frame loss probability applied per receiver.
  void set_loss_probability(double p) { loss_prob_ = p; }

  // -- fault injection ----------------------------------------------------------
  /// Per-delivery fault filter, consulted for every (frame, receiver) pair
  /// before the channel loss draw (fault/injector.hpp installs one to realise
  /// loss bursts, duplication and reordering windows). A broadcast's
  /// receivers share one delivery event unless a verdict delays or
  /// duplicates one of them, so a filter that only looks, or only drops,
  /// leaves the run's event order as it was. Null detaches; cost when unset
  /// is one branch per delivery.
  using FaultFilter = std::function<FaultVerdict(const Frame&, Addr to)>;
  void set_fault_filter(FaultFilter filter) { fault_filter_ = std::move(filter); }

  /// Bounded clock drift: deliveries transmitted *by* `node` have their
  /// propagation delay scaled by `factor` (clamped to [0.5, 2.0]) — a skewed
  /// local oscillator makes everything that node sends arrive early or late
  /// relative to true sim time. 1.0 (or clear_clock_drift) removes the skew.
  void set_clock_drift(Addr node, double factor);
  void clear_clock_drift(Addr node) { drift_.erase(node); }
  double clock_drift(Addr node) const;

  // -- transmission -------------------------------------------------------------
  /// Transmits a frame. Broadcast frames reach every current neighbour of
  /// frame.tx (each with independent loss); unicast frames reach frame.rx if
  /// adjacent. Returns false for a unicast whose destination is unreachable
  /// (link-layer feedback); broadcast always "succeeds".
  bool transmit(const Frame& frame);

  MediumStats stats() const;
  void reset_stats() { metrics_.reset_counters(); }

  /// The medium's named counters ("medium.control_frames", ...), for harness
  /// reporting alongside per-node registries.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Range-link pair-test counter ("medium.pair_evals"), incremented by the
  /// topology builders. The scale smoke test bounds it to prove the spatial
  /// index never silently regresses to an all-pairs scan.
  obs::Counter& pair_evals_counter() { return pair_evals_; }

  // -- tracing -----------------------------------------------------------------
  /// Attaches a trace journal: every transmission, delivery, drop and link
  /// transition appends a canonical record (frame payloads are FNV-hashed so
  /// two runs compare byte-for-byte). Null detaches; no journal means no
  /// overhead beyond one branch per event.
  void set_journal(obs::Journal* journal) { journal_ = journal; }

  // -- receive-side decode -----------------------------------------------------
  /// This world's one-entry PacketBB decode memo: every System CF on the
  /// medium decodes its control frames through it, so the receivers of one
  /// broadcast share one parse (see core::SystemCf). The medium only keeps
  /// it; it never parses a payload itself.
  pbb::DecodeMemo& decode_memo() { return decode_memo_; }

 private:
  // In-flight deliveries: a frame and the receivers it reaches at one
  // deadline — every surviving neighbour of a broadcast, or the one
  // receiver of a unicast or fault-filtered delivery. Capturing a Frame by
  // value in the scheduled closure overflows std::function's small-buffer
  // slot (one heap block per delivery); instead the frame parks in a
  // recycled slot (its receiver vector keeps its capacity) and the closure
  // captures only [this, index] — which fits. Slots live in a deque so
  // references stay stable across growth; the freelist is guarded because
  // executor worker threads transmit concurrently (same reason the traffic
  // counters are atomic).
  struct PendingDelivery {
    Frame frame{};
    std::vector<Addr> receivers;  // in delivery order
  };

  /// Takes each neighbour's fault verdict and loss draw in neighbour order,
  /// then parks the frame and the surviving receivers in one slot under
  /// one scheduler event, unless a verdict retimed a receiver (jitter or
  /// duplicates): then each delivery gets its own event.
  void broadcast(const Frame& frame);
  /// The fault filter's verdict for one receiver (the default one when no
  /// filter is set); a drop is counted and journaled here.
  FaultVerdict verdict_for(const Frame& frame, Addr to);
  /// One receiver's delivery and its duplicates, each its own event.
  void deliver_later(const Frame& frame, Addr to, const FaultVerdict& verdict);
  /// Channel loss draw for one receiver; journals and counts the drop.
  bool lost(const Frame& frame, Addr to);
  /// Propagation plus serialisation delay, scaled by the sender's drift.
  Duration air_time(const Frame& frame) const;
  void schedule_delivery(const Frame& frame, Addr to, Duration delay);
  /// A free slot (grown on demand) and its index; `receivers` is empty.
  /// Both take delivery_mu_ held: a slot is filled and emptied under it.
  PendingDelivery& take_slot(std::uint32_t& slot);
  void free_slot(std::uint32_t slot);
  void fire_delivery(std::uint32_t slot);
  /// Late checks (link still up for a broadcast, receiver up), then the
  /// receive; a throw goes to the scheduler's fault barrier.
  void deliver_now(const Frame& frame, Addr to);
  void journal_frame(obs::RecordKind kind, Addr at, std::uint64_t peer,
                     const Frame& frame, obs::DropReason reason = {}) const;
  std::uint64_t payload_hash(const Frame& frame) const;

  // One station per address that was ever attached or linked: its device
  // (null once detached, or if never attached) and its sorted neighbour
  // list. Stations are kept in address order, so deliver_now and has_link
  // each find theirs with one binary search over contiguous memory, and
  // clear_links() walks them in a deterministic order. A station is never
  // removed: links outlive a detach, as they always have.
  struct Station {
    Addr addr = kNoAddr;
    NetworkDevice* device = nullptr;
    std::vector<Addr> neighbors;  // sorted ascending
  };
  const Station* find_station(Addr a) const;
  /// `a`'s station, inserted in address order if absent.
  Station& station(Addr a);

  Scheduler& sched_;
  Rng rng_;
  std::vector<Station> stations_;  // sorted by addr
  std::vector<LinkObserver> link_observers_;
  // Broadcast snapshot buffer, recycled across transmissions so an armed
  // fault filter does not cost an allocation per broadcast. Moved out while
  // in use, so a reentrant transmit from a filter falls back to a fresh
  // (empty, allocating) vector instead of clobbering the outer fan-out.
  std::vector<Addr> bcast_scratch_;
  // The surviving receivers' fault verdicts, recycled the same way.
  std::vector<FaultVerdict> verdict_scratch_;
  std::deque<PendingDelivery> delivery_slots_;
  std::vector<std::uint32_t> free_delivery_slots_;
  std::mutex delivery_mu_;
  Duration base_delay_ = usec(500);
  double loss_prob_ = 0.0;
  FaultFilter fault_filter_;
  std::map<Addr, double> drift_;
  obs::MetricsRegistry metrics_;
  obs::Counter& control_frames_ = metrics_.counter("medium.control_frames");
  obs::Counter& control_bytes_ = metrics_.counter("medium.control_bytes");
  obs::Counter& data_frames_ = metrics_.counter("medium.data_frames");
  obs::Counter& data_bytes_ = metrics_.counter("medium.data_bytes");
  obs::Counter& dropped_loss_ = metrics_.counter("medium.dropped_loss");
  obs::Counter& dropped_fault_ = metrics_.counter("medium.dropped_fault");
  obs::Counter& dropped_link_lost_ =
      metrics_.counter("medium.dropped_link_lost");
  obs::Counter& dropped_node_down_ =
      metrics_.counter("medium.dropped_node_down");
  obs::Counter& failed_unicasts_ = metrics_.counter("medium.failed_unicasts");
  obs::Counter& link_flips_ = metrics_.counter("medium.link_flips");
  obs::Counter& pair_evals_ = metrics_.counter("medium.pair_evals");
  obs::Journal* journal_ = nullptr;
  // One-entry payload-hash cache: a broadcast's tx record and its k rx
  // records all point at the same shared immutable buffer, so the FNV over
  // the bytes is computed once per distinct payload, not once per record.
  // Holding the PayloadPtr (not a raw pointer) rules out stale hits when an
  // allocator reuses a freed buffer's address.
  mutable PayloadPtr hashed_payload_;
  mutable std::uint64_t hashed_payload_fnv_ = 0;
  pbb::DecodeMemo decode_memo_;
};

}  // namespace mk::net

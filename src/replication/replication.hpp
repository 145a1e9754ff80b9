// Replicated S elements (ISSUE 10): peer checkpointing so nodes survive
// crashes, not just component faults.
//
// The supervision layer (ISSUE 5) recovers a *component* fault by restarting
// the unit in place, optionally carrying its S element — the state never
// left the node. A node *crash* loses the S elements themselves, so a
// restarted node used to cold-start: empty tables, reset sequence numbers,
// and a full reconvergence round-trip before it routes again.
//
// This CF closes that gap by replicating S elements to 1-hop neighbours:
//
//   * each unit whose S element implements core::IStateCodec is snapshotted
//     periodically into a checkpoint blob stamped with an RFC-1982-style
//     epoch (policy-layer serial arithmetic: wraps are handled, and a peer
//     past the staleness bound accepts an "older" epoch — the origin has
//     cold-started and restarted its counter);
//   * checkpoints piggyback as packet-level TLVs on outbound broadcast
//     control traffic (HELLO/TC/RREQ floods) — zero extra frames in steady
//     state; a short beacon grace period sends a dedicated REPL message only
//     when nothing broadcast in time;
//   * peers keep the freshest full blob per (origin, unit); under
//     hot-standby the origin publishes prefix/suffix deltas at a faster
//     cadence and peers patch their stored blob;
//   * after a crash/restart fault the node broadcasts a solicit; peers
//     unicast their replicas back as offers, and the freshest one is decoded
//     straight into the restarted S element (stop -> decode -> start, so the
//     soft-state seed functions re-arm expiry from the restored tables) and
//     its kernel routes are reinstalled.
//
// The strategy (none / checkpoint / hot-standby) is runtime-switchable via
// core::ReplicationControl, which the policy engine flips from context rules
// like any other adaptation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "core/state_codec.hpp"
#include "packetbb/checkpoint.hpp"
#include "util/time.hpp"
#include "util/timer.hpp"

namespace mk::repl {

struct ReplicationParams {
  /// Full-snapshot cadence under kCheckpoint.
  Duration checkpoint_interval = sec(2);
  /// Delta cadence under kHotStandby.
  Duration standby_interval = msec(500);
  /// Every Nth hot-standby publish is a full snapshot (delta resync anchor).
  int full_every = 8;
  /// A stored replica older than this is superseded by *any* incoming
  /// checkpoint regardless of epoch order (origin cold-started and reset its
  /// epoch counter), and is never offered for rehydration. Matches the
  /// soft-state discipline: holding time bounds staleness.
  Duration staleness_bound = sec(15);
  core::ReplicationStrategy initial = core::ReplicationStrategy::kCheckpoint;
};

/// The replication CF's S element and the node's core::ReplicationControl.
/// Holds the peer-replica store, the per-unit checkpoint epochs, and the
/// staged TLVs awaiting piggyback.
class ReplicationManager final : public oc::Component,
                                 public core::IState,
                                 public core::ReplicationControl {
 public:
  ReplicationManager(core::Manetkit& kit, ReplicationParams params);
  ~ReplicationManager() override;

  // -- core::ReplicationControl -----------------------------------------------
  core::ReplicationStrategy strategy() const override { return strategy_; }
  void set_strategy(core::ReplicationStrategy s) override;
  std::size_t replicas_held() const override { return replicas_.size(); }
  std::int64_t own_replica_age_us() const override;
  bool request_rehydrate(const std::string& unit) override;

  // -- crash model (testbed fault plan) ----------------------------------------
  /// Wipes everything a real crash would lose: staged checkpoints, publish
  /// epochs, and the replicas this node held for others. Journals
  /// kRehydrate/kColdStart for the whole node.
  void on_crash_wipe();

  /// Current publish interval (strategy-dependent); the publisher source
  /// re-reads it every fire, so a strategy switch changes cadence at the
  /// next tick without re-arming anything.
  Duration publish_interval() const;

  // -- internal entry points (publisher source / REPL handler) -----------------
  void attach(core::ManetProtocolCf* cf);
  void publish_checkpoints(core::ProtocolContext& ctx);
  void handle_repl_message(const ev::Event& event, core::ProtocolContext& ctx);

  std::string describe() const override;

 private:
  struct Replica {
    std::uint16_t epoch = 0;
    std::int64_t at_us = 0;
    std::vector<std::uint8_t> blob;
  };
  struct PublishState {
    std::uint16_t epoch = 0;
    int publishes = 0;  // total publish ticks (every full_every-th anchors)
    /// Blob as of the last publish — the base the next hot-standby delta is
    /// computed against (peers patch their stored copy of exactly this).
    std::vector<std::uint8_t> last_pub;
  };

  /// Deployed units (sorted by name) whose S element speaks IStateCodec,
  /// excluding this CF itself.
  std::vector<std::pair<std::string, core::IStateCodec*>> codec_units() const;
  core::IStateCodec* codec_of(const std::string& unit) const;

  void stage(pbb::Tlv tlv, std::uint64_t unit_hash);
  void provide_packet_tlvs(std::vector<pbb::Tlv>& out);
  void beacon_fire();
  void accept_checkpoint(const pbb::Checkpoint& cp, net::Addr from);
  void handle_solicit(const pbb::Solicit& s, net::Addr from,
                      core::ProtocolContext& ctx);
  void apply_offer(const pbb::Checkpoint& cp, net::Addr from);
  void journal(obs::RecordKind kind, std::uint64_t unit_hash,
               std::uint64_t phase, std::uint16_t epoch, std::uint64_t c);

  core::Manetkit& kit_;
  ReplicationParams params_;
  core::ManetProtocolCf* cf_ = nullptr;
  core::ReplicationStrategy strategy_;

  std::map<std::pair<net::Addr, std::uint64_t>, Replica> replicas_;
  std::map<std::string, PublishState> publish_;   // by unit name
  std::map<std::uint64_t, pbb::Tlv> staged_;      // by unit hash; latest wins
  std::unique_ptr<OneShotTimer> beacon_timer_;
  std::int64_t last_spread_us_ = -1;  // last piggyback/beacon carrying our state

  /// Units soliciting offers, with the freshest epoch applied so far (only
  /// strictly fresher offers are applied); cleared at the next own publish.
  std::map<std::string, std::uint16_t> rehydrating_;
  std::set<std::string> rehydrate_virgin_;  // no offer applied yet
};

/// Registers the "replication" utility CF (layer 5, below the routing
/// protocols). Deploying it installs the REPL message binding, the SystemCf
/// packet-TLV piggyback hooks, and publishes core::ReplicationControl on the
/// facade.
void register_replication(core::Manetkit& kit, ReplicationParams params = {});

/// The deployed replication CF's manager (null if `cf` is not one).
ReplicationManager* replication_state(core::ManetProtocolCf& cf);

}  // namespace mk::repl

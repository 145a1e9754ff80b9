// Replicated S elements (ISSUE 10): peer checkpointing so nodes survive
// crashes, not just component faults.
//
//  * CrashReconvergence.* — the headline claim: on a 50-node grid, a crashed
//    relay that rehydrates its S element from 1-hop peer replicas reconverges
//    strictly faster than the same crash under strategy none (cold start).
//    Both runs share one crash model (everything stops, codec state wiped,
//    kernel table cleared); only the rehydrate arm differs.
//  * StaleEpoch.* — RFC-1982 epoch discipline: a cold-started origin
//    republishing from epoch 1 is rejected by peers holding fresher replicas
//    until the staleness bound expires, after which any epoch is accepted
//    (the origin's counter legitimately reset).
//  * Determinism.* — every strategy (none / checkpoint / hot-standby) is
//    digest-identical across same-seed reruns, and checkpoint runs are
//    digest-identical across MemBackend::kPool vs kHeap.
//  * CrashSend.* — a crashed node's local sends never reach its stopped
//    protocol CFs.
//  * StateCodec.* — the OLSR, DYMO and AODV checkpoint codecs on a populated
//    S element: byte-identical round trip, and every malformed blob (strict
//    prefix, trailing byte, wrong version) rejected, as replicas arrive off
//    the wire.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>

#include "fault/plan.hpp"
#include "protocols/aodv/aodv_state.hpp"
#include "protocols/dymo/dymo_cf.hpp"
#include "protocols/dymo/dymo_state.hpp"
#include "protocols/olsr/olsr_state.hpp"
#include "replication/replication.hpp"
#include "supervision/supervisor.hpp"
#include "testbed/world.hpp"
#include "util/mem.hpp"

namespace mk {
namespace {

std::uint64_t chaos_seed() {
  const char* env = std::getenv("MK_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1234;
  return std::strtoull(env, nullptr, 10);
}

struct ChaosSig {
  std::uint64_t ordered = 0;
  std::uint64_t canonical = 0;
  std::uint64_t total = 0;
  std::size_t violations = 0;
  bool operator==(const ChaosSig&) const = default;
};

ChaosSig finish(testbed::SimWorld& world) {
  world.checker()->check_all(world.now().us);
  return ChaosSig{world.journal()->ordered_digest(),
                  world.journal()->canonical_digest(),
                  world.journal()->total(),
                  world.checker()->violations().size()};
}

// ------------------------------------------------- 50-node crash/reconverge

struct CrashRun {
  ChaosSig sig;
  /// Sim time from restart until the crashed relay again holds a kernel
  /// route to every other node; -1 when it never did within the deadline.
  std::int64_t reconverge_us = -1;
  std::uint64_t rehydrates = 0;
  std::uint64_t replicas_on_neighbour = 0;
};

/// The acceptance scenario: a 50-node 10x5 grid running OLSR, replication CF
/// everywhere with the given strategy. Once the mid-grid relay knows a route
/// to all 49 peers (and a checkpoint cycle has spread its S element), the
/// relay suffers a full crash (state wiped), stays dark 2s, restarts, and we
/// clock how long it takes to be fully routed again.
CrashRun run_crash_reconverge(std::uint64_t seed,
                              core::ReplicationStrategy strategy,
                              std::size_t nodes = 50) {
  testbed::SimWorld world(nodes, seed);
  world.enable_invariants();
  repl::ReplicationParams params;
  params.initial = strategy;
  world.enable_replication(params);
  world.grid(10);
  world.deploy_all("olsr");

  const std::size_t c = nodes / 2;  // mid-grid relay
  auto routed_from_relay = [&] {
    for (std::size_t i = 0; i < nodes; ++i) {
      if (i != c && !world.has_route(c, world.addr(i))) return false;
    }
    return true;
  };

  bool converged = false;
  for (int i = 0; i < 1200 && !converged; ++i) {
    world.run_for(msec(100));
    converged = routed_from_relay();
  }
  EXPECT_TRUE(converged) << "initial OLSR convergence timed out";
  // One full publish cycle (checkpoint_interval 2s + beacon grace) so the
  // relay's S element is replicated before the crash.
  world.run_for(sec(5));

  // Quiescent-sweep discipline: at 50 nodes, proactive convergence passes
  // through transient micro-loops (two adjacent nodes briefly pointing at
  // each other while TC floods propagate) that the continuous checker
  // rightly logs. The invariant this scenario must guarantee is that every
  // *quiescent* point is loop-free, so we sweep-and-clear at the two that
  // matter: pre-crash and post-reconvergence. The small-world tests below
  // keep the stricter continuous accounting.
  world.checker()->clear_violations();
  world.checker()->check_all(world.now().us);
  EXPECT_EQ(world.checker()->violations().size(), 0u)
      << "pre-crash quiescent sweep must be clean";
  world.checker()->clear_violations();

  CrashRun out;
  out.replicas_on_neighbour =
      world.kit(c - 1).metrics().counter_value("repl.checkpoints_stored");

  world.crash_node(c);
  world.run_for(sec(2));
  world.restart_node(c);
  const std::int64_t restart_us = world.now().us;
  for (int i = 0; i < 1200; ++i) {
    world.run_for(msec(50));
    if (routed_from_relay()) {
      out.reconverge_us = world.now().us - restart_us;
      break;
    }
  }
  out.rehydrates = world.kit(c).metrics().counter_value("repl.rehydrates");
  world.run_for(sec(2));  // settle before the final quiescent sweep
  world.checker()->clear_violations();
  out.sig = finish(world);
  return out;
}

TEST(CrashReconvergence, CheckpointStrictlyFasterThanColdStart) {
  CrashRun cold =
      run_crash_reconverge(chaos_seed(), core::ReplicationStrategy::kNone);
  CrashRun warm = run_crash_reconverge(chaos_seed(),
                                       core::ReplicationStrategy::kCheckpoint);

  ASSERT_GE(cold.reconverge_us, 0) << "cold-start relay never reconverged";
  ASSERT_GE(warm.reconverge_us, 0) << "rehydrated relay never reconverged";
  EXPECT_EQ(cold.rehydrates, 0u);
  EXPECT_GE(warm.rehydrates, 1u)
      << "the relay must have applied at least one peer replica";
  EXPECT_GT(warm.replicas_on_neighbour, 0u)
      << "the relay's neighbour never stored a checkpoint pre-crash";
  EXPECT_LT(warm.reconverge_us, cold.reconverge_us)
      << "rehydrating from peers must beat cold start";
  EXPECT_EQ(cold.sig.violations, 0u);
  EXPECT_EQ(warm.sig.violations, 0u);
  EXPECT_GT(cold.sig.total, 0u);
  EXPECT_GT(warm.sig.total, 0u);
  // Recorded in BENCH_hotpaths.json / docs/REPLICATION.md.
  std::cout << "[reconverge] none=" << cold.reconverge_us
            << "us checkpoint=" << warm.reconverge_us
            << "us rehydrates=" << warm.rehydrates << "\n";
}

// --------------------------------------------------- stale-epoch rejection

TEST(StaleEpoch, ColdStartedOriginRejectedUntilBoundExpires) {
  testbed::SimWorld world(3, chaos_seed());
  world.enable_invariants();
  repl::ReplicationParams params;
  params.checkpoint_interval = msec(500);
  params.staleness_bound = sec(8);
  world.enable_replication(params);
  world.linear();
  world.deploy_all("olsr");
  world.run_for(sec(10));  // converge + several checkpoint rounds
  ASSERT_GT(world.kit(0).metrics().counter_value("repl.checkpoints_stored"),
            0u);

  // Crash the middle node, then isolate it so its restart solicit finds no
  // peers: it must cold-start and its epoch counters reset to 1.
  world.crash_node(1);
  world.run_for(sec(1));
  world.medium().set_link(world.addr(0), world.addr(1), false);
  world.medium().set_link(world.addr(1), world.addr(2), false);
  world.restart_node(1);
  world.run_for(sec(1));
  EXPECT_EQ(world.kit(1).metrics().counter_value("repl.rehydrates"), 0u)
      << "isolated restart must cold-start, not rehydrate";

  // Relink: node 1 republishes from epoch 1 while its peers still hold
  // fresher replicas — RFC-1982 comparison calls that stale, so they reject.
  world.medium().set_link(world.addr(0), world.addr(1), true);
  world.medium().set_link(world.addr(1), world.addr(2), true);
  world.run_for(sec(3));
  const std::uint64_t rejects =
      world.kit(0).metrics().counter_value("repl.rejects") +
      world.kit(2).metrics().counter_value("repl.rejects");
  EXPECT_GT(rejects, 0u) << "peers must reject the epoch-reset republish";

  // Past the staleness bound the held replicas are too old to trust over a
  // live origin, so any epoch is accepted and replication heals.
  const std::uint64_t stored_before =
      world.kit(0).metrics().counter_value("repl.checkpoints_stored");
  world.run_for(sec(12));
  EXPECT_GT(world.kit(0).metrics().counter_value("repl.checkpoints_stored"),
            stored_before)
      << "replication never healed after the staleness bound";
  ChaosSig sig = finish(world);
  EXPECT_EQ(sig.violations, 0u);
}

// ------------------------------------------------------------- determinism

/// Small crash/restart scenario used for the digest matrix: 8-node grid,
/// fixed sim-time script (no condition-dependent control flow).
ChaosSig run_small_crash(std::uint64_t seed, core::ReplicationStrategy strategy,
                         mem::MemBackend backend) {
  mem::BackendGuard mem_guard(backend);
  testbed::SimWorld world(8, seed);
  world.enable_invariants();
  repl::ReplicationParams params;
  params.initial = strategy;
  params.checkpoint_interval = sec(1);
  params.standby_interval = msec(250);
  world.enable_replication(params);
  world.grid(4);
  world.deploy_all("olsr");
  world.run_for(sec(25));

  world.crash_node(3);
  world.run_for(sec(2));
  world.restart_node(3);
  world.run_for(sec(15));

  // Exercise runtime strategy switching inside the deterministic script too.
  world.replication(0)->set_strategy(core::ReplicationStrategy::kHotStandby);
  world.run_for(sec(5));
  return finish(world);
}

TEST(Determinism, SameSeedDigestIdenticalPerStrategy) {
  const core::ReplicationStrategy strategies[] = {
      core::ReplicationStrategy::kNone,
      core::ReplicationStrategy::kCheckpoint,
      core::ReplicationStrategy::kHotStandby,
  };
  for (core::ReplicationStrategy s : strategies) {
    ChaosSig a = run_small_crash(chaos_seed(), s, mem::MemBackend::kPool);
    ChaosSig b = run_small_crash(chaos_seed(), s, mem::MemBackend::kPool);
    EXPECT_EQ(a, b) << "strategy " << core::to_string(s)
                    << " diverged across same-seed reruns";
    EXPECT_EQ(a.violations, 0u) << core::to_string(s);
    EXPECT_GT(a.total, 0u) << core::to_string(s);
  }
}

TEST(Determinism, PooledAndHeapBackendsDigestIdentical) {
  ChaosSig pooled = run_small_crash(chaos_seed(),
                                    core::ReplicationStrategy::kCheckpoint,
                                    mem::MemBackend::kPool);
  ChaosSig heap = run_small_crash(chaos_seed(),
                                  core::ReplicationStrategy::kCheckpoint,
                                  mem::MemBackend::kHeap);
  EXPECT_EQ(pooled, heap)
      << "pooled allocation changed observable replication behaviour";
  EXPECT_GT(pooled.total, 0u);
}

// ------------------------------------------- local send from a crashed node

/// A crash stops every protocol CF. A local send from the crashed node must
/// not reach them (DYMO's NO_ROUTE handler would touch its stopped
/// soft-state layer and abort): the down device originates nothing and
/// counts a send failure. After the restart the node sends again.
TEST(CrashSend, LocalSendFromCrashedNodeOriginatesNothing) {
  testbed::SimWorld world(4, chaos_seed());
  world.enable_replication();
  world.linear();
  world.deploy_all("dymo");
  world.run_for(sec(5));

  world.crash_node(0);
  net::ForwardingEngine& fwd = world.node(0).forwarding();
  const net::ForwardingStats before = fwd.stats();
  EXPECT_FALSE(fwd.send(world.addr(3), 128));
  EXPECT_EQ(fwd.stats().send_failures, before.send_failures + 1);
  EXPECT_EQ(fwd.stats().originated, before.originated);
  EXPECT_EQ(fwd.stats().buffered, before.buffered);
  world.run_for(sec(2));

  world.restart_node(0);
  world.run_for(sec(5));
  EXPECT_TRUE(fwd.send(world.addr(3), 128));
  world.run_for(sec(3));
  EXPECT_EQ(world.node(3).deliveries().size(), 1u);
}

// ------------------------------------------------------- hot-standby deltas

TEST(HotStandby, PublishesDeltasAndPeersApplyThem) {
  testbed::SimWorld world(3, chaos_seed());
  world.enable_invariants();
  repl::ReplicationParams params;
  params.initial = core::ReplicationStrategy::kHotStandby;
  params.standby_interval = msec(200);
  params.full_every = 4;
  world.enable_replication(params);
  world.linear();
  world.deploy_all("olsr");
  world.run_for(sec(20));

  // A converging OLSR S element changes often enough that the hot-standby
  // cadence must have produced both anchors and deltas, and peers must have
  // patched deltas onto stored bases.
  EXPECT_GT(world.kit(1).metrics().counter_value("repl.deltas_published"), 0u);
  EXPECT_GT(world.kit(1).metrics().counter_value("repl.checkpoints_published"),
            0u);
  const std::uint64_t applied =
      world.kit(0).metrics().counter_value("repl.deltas_applied") +
      world.kit(2).metrics().counter_value("repl.deltas_applied");
  EXPECT_GT(applied, 0u) << "no peer ever applied a delta patch";
  ChaosSig sig = finish(world);
  EXPECT_EQ(sig.violations, 0u);
}

// --------------------- supervision x replication (the full recovery ladder)

/// Breaker re-trip within probation -> stateless restart -> rehydrate from
/// the 1-hop peer replica. The unit's S element is deliberately dropped by
/// the suspect restart, yet a recognisable seeded route comes back — from
/// the neighbour, not from local memory.
TEST(RecoveryLadder, SuspectRestartRehydratesFromPeerReplica) {
  testbed::SimWorld world(2, chaos_seed());
  repl::ReplicationParams rparams;
  rparams.checkpoint_interval = msec(500);
  world.enable_replication(rparams);
  supervision::SupervisorOptions opts;
  opts.fault_threshold = 1;
  opts.max_restarts = 3;
  opts.fault_window = sec(5);
  opts.initial_backoff = msec(100);
  world.enable_supervision(opts);
  world.linear();
  world.deploy_all("dymo");
  world.run_for(sec(1));

  // A long-lived route seeded into node 0's S element, then replicated.
  auto* st = proto::dymo_state(*world.kit(0).protocol("dymo"));
  ASSERT_NE(st, nullptr);
  st->update_route(99, 1, 98, 1, TimePoint{0}, sec(600));
  world.run_for(sec(3));
  ASSERT_GT(world.kit(1).metrics().counter_value("repl.checkpoints_stored"),
            0u)
      << "the peer never stored a replica of node 0's state";

  // Deterministic deliveries into dymo (see test_supervision.cpp for why a
  // poker beats real discovery traffic here).
  world.kit(0).register_protocol("poker", 15, [](core::Manetkit& k) {
    auto cf = std::make_unique<core::ManetProtocolCf>(
        "poker", k.scheduler(), k.self(), &k.system().sys_state());
    cf->declare_events({}, {"RERR_IN"});
    return cf;
  });
  world.kit(0).deploy("poker");
  supervision::Supervisor& sup = *world.supervisor(0);

  // Trip #1: in-place restart, state carried.
  sup.set_misbehaviour("dymo", fault::Misbehave::kThrow);
  world.kit(0).protocol("poker")->emit(ev::Event(ev::etype("RERR_IN")));
  ASSERT_EQ(sup.health("dymo"), supervision::UnitHealth::kQuarantined);
  sup.set_misbehaviour("dymo", fault::Misbehave::kNone);
  world.run_for(msec(300));
  ASSERT_EQ(sup.health("dymo"), supervision::UnitHealth::kHealthy);

  // Trip #2 inside probation: restart goes stateless, then asks the peers.
  sup.set_misbehaviour("dymo", fault::Misbehave::kThrow);
  world.kit(0).protocol("poker")->emit(ev::Event(ev::etype("RERR_IN")));
  ASSERT_EQ(sup.health("dymo"), supervision::UnitHealth::kQuarantined);
  sup.set_misbehaviour("dymo", fault::Misbehave::kNone);
  world.run_for(sec(1));  // backoff + solicit/offer round trip

  EXPECT_EQ(sup.health("dymo"), supervision::UnitHealth::kHealthy);
  EXPECT_EQ(world.kit(0).metrics().counter_value("sup.stateless_restarts"),
            1u);
  EXPECT_GE(world.kit(0).metrics().counter_value("sup.rehydrate_requests"),
            1u);
  EXPECT_GE(world.kit(0).metrics().counter_value("repl.rehydrates"), 1u)
      << "the peer's offer never made it back into the fresh S element";
  auto* st_after = proto::dymo_state(*world.kit(0).protocol("dymo"));
  ASSERT_NE(st_after, nullptr);
  EXPECT_TRUE(st_after->route_to(99).has_value())
      << "seeded route must come back from the peer replica, not local RAM";
}

// `populated` must encode to a blob that `scratch` (same type) decodes back
// byte-identically; a wrong version is rejected before anything is reset,
// and every strict prefix or a trailing byte is rejected too.
void expect_strict_codec(const core::IStateCodec& populated,
                         core::IStateCodec& scratch) {
  std::vector<std::uint8_t> blob;
  populated.encode_state(blob);
  ASSERT_GT(blob.size(), 8u);
  ASSERT_TRUE(scratch.decode_state(blob));
  std::vector<std::uint8_t> again;
  scratch.encode_state(again);
  EXPECT_EQ(again, blob);

  std::vector<std::uint8_t> wrong_version = blob;
  wrong_version[0] ^= 0xFF;
  EXPECT_FALSE(scratch.decode_state(wrong_version));
  again.clear();
  scratch.encode_state(again);
  EXPECT_EQ(again, blob) << "a wrong version must not reset the element";

  for (std::size_t n = 0; n < blob.size(); ++n) {
    EXPECT_FALSE(scratch.decode_state(std::span(blob.data(), n)))
        << "accepted a " << n << "-byte prefix of " << blob.size();
  }
  std::vector<std::uint8_t> trailing = blob;
  trailing.push_back(0);
  EXPECT_FALSE(scratch.decode_state(trailing));
}

TEST(StateCodec, OlsrRejectsMalformedBlobs) {
  proto::OlsrState st;
  st.update_topology(10, 3, {20, 21}, TimePoint{1000}, sec(15));
  st.update_topology(11, 7, {22}, TimePoint{2000}, sec(15));
  st.set_last_advertised({30, 31});
  st.next_msg_seq();
  st.bump_ansn();
  proto::OlsrState scratch;
  expect_strict_codec(st, scratch);
}

TEST(StateCodec, DymoRejectsMalformedBlobs) {
  proto::DymoState st;
  st.update_route(10, 5, 20, 2, TimePoint{0}, sec(5));
  st.update_route(11, 9, 21, 3, TimePoint{0}, sec(5));
  st.bump_seq();
  st.check_duplicate(proto::dymo_dup_key(proto::DupKind::kRreq, 7, 3),
                     TimePoint{1});
  proto::DymoState scratch;
  expect_strict_codec(st, scratch);
}

TEST(StateCodec, AodvRejectsMalformedBlobs) {
  proto::AodvState st;
  st.update_route(10, 5, true, 20, 2, TimePoint{0}, sec(3));
  st.update_route(11, 6, true, 21, 4, TimePoint{0}, sec(3));
  st.add_precursor(10, 77);
  st.next_rreq_id();
  st.bump_seq();
  st.check_rreq_seen(7, 100, TimePoint{5});
  proto::AodvState scratch;
  expect_strict_codec(st, scratch);
}

}  // namespace
}  // namespace mk

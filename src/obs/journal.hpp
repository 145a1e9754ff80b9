// Trace journal: the per-node/per-world flight recorder behind MANETKit's
// "safe adaptation" evidence (ISSUE 3). Hooks in the Framework Manager, the
// simulated medium, the scheduler and the kernel route tables append
// fixed-size structured records into a preallocated ring buffer, so enabling
// tracing costs no allocations on the hot path — only a spinlocked store and
// a pair of digest accumulator updates.
//
// Two digests are maintained incrementally over the *entire* record stream
// (not just the retained ring window):
//
//  * ordered_digest()   — an FNV-1a chain over canonicalized records. Two
//                         single-threaded runs with the same seed must match
//                         byte-for-byte; any divergence (even a reordering)
//                         changes the value.
//  * canonical_digest() — an order-insensitive multiset digest (sum and
//                         sum-of-squares of per-record hashes). Identical
//                         whenever the *set* of records matches, which is the
//                         right equivalence when comparing a single-threaded
//                         run against a pool-executor run whose worker
//                         interleaving reorders otherwise-identical records.
//
// Records are canonical by construction: they carry sim time, stable content
// hashes (event-type name hashes, payload FNV) and protocol-level ids — never
// pointers, wall-clock times or interning-order-dependent dense ids.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <atomic>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace mk::obs {

// ------------------------------------------------------------------ hashing

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Incremental FNV-1a over one 64-bit word (byte at a time, LE order).
constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (i * 8)) & 0xff)) * kFnvPrime;
  }
  return h;
}

/// FNV-1a over a byte span (payload hashing for byte-for-byte tx records).
constexpr std::uint64_t fnv1a_bytes(std::span<const std::uint8_t> bytes,
                                    std::uint64_t h = kFnvOffset) {
  for (std::uint8_t b : bytes) h = (h ^ b) * kFnvPrime;
  return h;
}

/// FNV-1a over a string (stable name hashes, interning-order independent).
constexpr std::uint64_t fnv1a_str(std::string_view s,
                                  std::uint64_t h = kFnvOffset) {
  for (char c : s) h = (h ^ static_cast<std::uint8_t>(c)) * kFnvPrime;
  return h;
}

// ------------------------------------------------------------------ records

enum class RecordKind : std::uint8_t {
  kEventDispatch = 1,  // a=stable event-type hash, b=#targets, c=emitter hash
  kFrameTx = 2,        // a=link dest (bcast=0xffffffff), b=wire size, c=payload hash
  kFrameRx = 3,        // a=transmitter, b=wire size, c=payload hash
  kFrameDrop = 4,      // a=transmitter/dest, b=wire size, c=DropReason
  kTimerFire = 5,      // a=timer id (deterministic sim sequence number)
  kRouteAdd = 6,       // a=dest, b=next hop, c=metric
  kRouteDel = 7,       // a=dest
  kCfBind = 8,         // a=stable unit-name hash, b=layer
  kCfUnbind = 9,       // a=stable unit-name hash, b=layer
  kLinkUp = 10,        // a=peer
  kLinkDown = 11,      // a=peer
  kFault = 12,         // a=fault action kind, b/c=action parameters
  kReconfig = 13,      // a=ReconfigPhase, b=from-name hash, c=to-name hash
  kComponentFault = 14,  // a=stable unit-name hash (0 = unattributed timer),
                         // b=ComponentFaultReason, c=unit's lifetime fault #
  kQuarantine = 15,      // a=stable unit-name hash, b=QuarantinePhase,
                         // c=phase detail (window fault count on kEnter,
                         //   attempt # on kRestart, backoff us on kRecover)
  kSoftExpire = 16,      // a=stable soft-state set-name hash, b=entry key
                         // (address, or packed address|seq for duplicate
                         // sets), c=entries left in the set after expiry
  kCheckpoint = 17,      // a=stable unit-name hash, b=CheckpointPhase<<32 |
                         //   checkpoint epoch, c=blob bytes (kPublish /
                         //   kStore / kDelta) or peer address (kReject)
  kRehydrate = 18,       // a=stable unit-name hash (0 = whole node),
                         // b=RehydratePhase<<32 | checkpoint epoch,
                         // c=peer/origin address involved
};

/// Reasons packed into kFrameDrop's c field. Every frame that leaves the air
/// without being delivered lands in the journal under exactly one of these —
/// nothing is silently elided, so first_divergence() on two runs' drop
/// streams pinpoints where behaviour parted ways.
enum class DropReason : std::uint64_t {
  kLoss = 1,       // channel loss probability draw
  kNoLink = 2,     // unicast to a non-adjacent destination (link-layer fail)
  kLinkLost = 3,   // link went down while the frame was in flight
  kNodeDown = 4,   // receiver device down/detached at delivery time
  kFaultLoss = 5,  // dropped by an injected fault (loss burst / partition)
};

/// Phases in kReconfig's a field (protocol replace lifecycle: one attempt,
/// then commit or rollback; value 2 is retired).
enum class ReconfigPhase : std::uint64_t {
  kBegin = 1,     // quiesced, about to swap
  kCommit = 3,    // replacement active (state carried if requested)
  kRollback = 4,  // the attempt failed; prior protocol redeployed
};

/// Reasons packed into kComponentFault's b field (supervision, ISSUE 5).
enum class ComponentFaultReason : std::uint64_t {
  kException = 1,    // handler threw out of deliver()
  kDeadline = 2,     // charged dispatch cost exceeded the watchdog deadline
  kTimer = 3,        // a scheduled timer callback threw (trapped world-side)
  kCorrupt = 4,      // injected output-integrity fault (misbehave corrupt)
  kAllocBudget = 5,  // dispatch exceeded the per-dispatch allocation budget
                     // (mk::memtrack window around the guarded deliver)
};

/// Phases packed into kQuarantine's b field (circuit breaker + recovery
/// ladder lifecycle; one record per transition).
enum class QuarantinePhase : std::uint64_t {
  kEnter = 1,     // breaker tripped; unit unbound and routed around
  kRestart = 2,   // recovery attempt: re-instantiate with S element carried
  kRecover = 3,   // restart committed; unit live again (c=backoff us used)
  kFallback = 4,  // restarts exhausted; failed unit undeployed, a co-deployed
                  // protocol keeps the node routing
  kEscalate = 5,  // no fallback available; surfaced to the policy engine via
                  // the ContextView health signal
  kProbation = 6, // unit stayed clean for a full fault window post-recovery;
                  // ladder (restart count/backoff) reset
};

/// Detail flags OR-ed into the high bits of a kQuarantine kRestart record's c
/// field (low 32 bits stay the attempt number), distinguishing restart-rung
/// sub-phases (ISSUE 10 satellite: variant-aware recovery).
inline constexpr std::uint64_t kRestartVariantFlag = 1ull << 32;
/// The carried S element was judged suspect (breaker re-tripped within
/// probation); the unit restarted stateless and peer replicas were consulted.
inline constexpr std::uint64_t kRestartStatelessFlag = 1ull << 33;

/// Phases packed into the high 32 bits of a kCheckpoint record's b field
/// (S-element replication, ISSUE 10; low 32 bits carry the RFC-1982 epoch).
enum class CheckpointPhase : std::uint64_t {
  kPublish = 1,  // full snapshot staged for piggyback / sent in a beacon
  kStore = 2,    // peer replica accepted into the local store
  kDelta = 3,    // hot-standby delta published (c = patch bytes)
  kDeltaApply = 4,  // hot-standby delta applied onto a stored replica
  kReject = 5,   // replica refused: RFC-1982-older epoch or delta base miss
};

/// Phases packed into the high 32 bits of a kRehydrate record's b field.
enum class RehydratePhase : std::uint64_t {
  kSolicit = 1,      // restarted node broadcast a replica solicitation
  kOffer = 2,        // peer answered a solicit with a stored replica
  kApply = 3,        // offered replica decoded into the live S element
  kStaleReject = 4,  // offer ignored: older epoch than what is already live,
                     // or past the staleness bound
  kColdStart = 5,    // no usable replica arrived; protocol reconverges cold
};

std::string_view kind_name(RecordKind kind);
std::optional<RecordKind> kind_from_name(std::string_view name);

/// One canonical trace record. Plain data, fixed size: the ring never touches
/// the heap after construction.
struct Record {
  RecordKind kind{};
  std::uint32_t node = 0;    // address the record was observed at (0 = world)
  std::int64_t time_us = 0;  // sim time
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  bool operator==(const Record&) const = default;
};

/// One wordwise FNV-1a step: a single multiply per 64-bit field, cheap
/// enough for the per-append hot path (the byte-stepped variants above are
/// reserved for strings and payloads, which are hashed once and cached).
constexpr std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Canonical per-record hash (the unit both digests build on). Six wordwise
/// steps plus a final fold so the canonical (sum / sum-of-squares) digest
/// sees well-mixed low bits.
constexpr std::uint64_t record_hash(const Record& r) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_word(h, static_cast<std::uint64_t>(r.kind));
  h = fnv1a_word(h, r.node);
  h = fnv1a_word(h, static_cast<std::uint64_t>(r.time_us));
  h = fnv1a_word(h, r.a);
  h = fnv1a_word(h, r.b);
  h = fnv1a_word(h, r.c);
  h ^= h >> 32;
  return h * kFnvPrime;
}

// ------------------------------------------------------------------ journal

class Journal {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 15;

  explicit Journal(std::size_t capacity = kDefaultCapacity);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends a record: O(1), allocation-free (the ring is preallocated).
  /// Thread-safe via a spinlock — the critical section is a store plus a
  /// handful of multiplies, far below the cost of parking a thread, and the
  /// uncontended path is a single atomic exchange. In threaded deployments
  /// records from different workers interleave in lock-acquisition order.
  void append(const Record& record);

  std::size_t capacity() const { return capacity_; }
  /// Total records ever appended (appends keep counting after wrap-around).
  std::uint64_t total() const;
  /// Records lost to ring wrap-around (total() - retained).
  std::uint64_t overwritten() const;
  std::size_t retained() const;

  /// Running digests over all appended records (see file comment).
  std::uint64_t ordered_digest() const;
  std::uint64_t canonical_digest() const;

  /// Consistent one-lock capture of both digests plus the record count, for
  /// per-cell evidence in the scenario matrix (reading the three accessors
  /// separately could interleave with appends from a pool executor).
  struct DigestSnapshot {
    std::uint64_t ordered = 0;
    std::uint64_t canonical = 0;
    std::uint64_t records = 0;
  };
  DigestSnapshot digests() const;

  /// Copy of the retained window, oldest first.
  std::vector<Record> snapshot() const;

  /// Observer invoked synchronously on every append (under the journal lock:
  /// observers must not append or block). Used by the invariant checker.
  using Observer = std::function<void(const Record&)>;
  void add_observer(Observer observer);

  /// Drops all records and resets digests (observers are kept).
  void clear();

  // -- dump / load (post-mortem diffing) -------------------------------------
  /// Writes the retained window as one text line per record:
  ///   <kind> <node> <time_us> <a> <b> <c>
  void dump(std::ostream& out) const;

  /// Parses a dump() stream back into records (for diffing a saved trace
  /// against a fresh run). Unparseable lines are skipped.
  static std::vector<Record> load(std::istream& in);

 private:
  /// RAII spinlock guard over busy_.
  class SpinGuard {
   public:
    explicit SpinGuard(const Journal& journal) : journal_(journal) {
      while (journal_.busy_.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~SpinGuard() { journal_.busy_.clear(std::memory_order_release); }
    SpinGuard(const SpinGuard&) = delete;
    SpinGuard& operator=(const SpinGuard&) = delete;

   private:
    const Journal& journal_;
  };

  const std::size_t capacity_;
  mutable std::atomic_flag busy_ = ATOMIC_FLAG_INIT;
  std::vector<Record> ring_;  // preallocated to capacity_
  std::uint64_t total_ = 0;
  std::uint64_t ordered_ = kFnvOffset;
  std::uint64_t sum_ = 0;
  std::uint64_t sum_sq_ = 0;
  std::vector<Observer> observers_;
};

/// Index of the first record where the two streams diverge (nullopt when one
/// is a prefix of the other and lengths match — i.e. identical).
std::optional<std::size_t> first_divergence(std::span<const Record> a,
                                            std::span<const Record> b);

/// Human-readable one-line rendering (matches dump()'s format).
std::string to_string(const Record& record);

}  // namespace mk::obs

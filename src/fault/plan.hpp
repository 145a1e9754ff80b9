// Deterministic fault schedules (the chaos-testing layer's "what happens
// when"). A FaultPlan is an ordered list of actions pinned to exact sim
// times: link loss bursts, frame duplication and reordering windows,
// network partitions and heals, node crashes and restarts, and bounded
// clock drift. Plans are pure data — building or parsing one touches no
// simulator state; fault/injector.hpp arms a plan onto a scheduler/medium.
//
// Two authoring surfaces:
//  * a programmatic builder (chained calls, one per action), and
//  * a tiny line-oriented text format, one action per line:
//
//      # comment / blank lines ignored
//      at 5s loss 0.5 for 2s              # whole-medium loss burst
//      at 5s loss 0.8 link 1 2 for 500ms  # directed-link loss burst
//      at 3s dup 0.25 for 4s              # duplication window
//      at 4s reorder 300us for 2s         # reorder jitter window
//      at 8s partition 0 1 2 | 3 4        # cut every link between the sides
//      at 12s heal                        # restore the last partition's cuts
//      at 9s crash 2                      # node 2 radio off
//      at 11s restart 2                   # node 2 radio back on
//      at 2s drift 3 1.05 for 10s         # node 3 oscillator 5% fast
//      at 5s misbehave 1 olsr throw       # component fault, until cleared
//      at 5s misbehave 1 mpr stall for 3s # windowed component fault
//
// Times are durations with a unit suffix (us/ms/s), relative to the arm
// time. Nodes are testbed indices (net::addr_for_index).
//
// The parser is hardened against untrusted input: try_parse() returns a
// Result and never throws or invokes UB — truncated lines, out-of-range
// numbers (negative durations, probabilities outside [0,1], node indices
// beyond the address plan, values that would overflow the microsecond
// arithmetic) and unknown verbs all come back as errors naming the offending
// line. parse() is the throwing convenience wrapper; to_text() round-trips.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/address.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace mk::fault {

enum class FaultKind : std::uint8_t {
  kLossBurst = 1,  // p, window, optional directed link scope
  kDuplicate = 2,  // p, window
  kReorder = 3,    // max jitter, window
  kPartition = 4,  // cut all links between group_a and group_b
  kHeal = 5,       // restore the most recent un-healed partition
  kCrash = 6,      // node radio off
  kRestart = 7,    // node radio on
  kDrift = 8,      // clock drift factor, window
  kMisbehave = 9,  // inject a component-level fault (supervision, ISSUE 5)
};

/// Component misbehaviour modes for kMisbehave, injected deterministically
/// at the supervisor's guard boundary (supervision::Supervisor::
/// set_misbehaviour reads this enum directly):
///  * kThrow   — the dispatch throws instead of delivering.
///  * kStall   — the dispatch charges (deadline + 1ms) of modelled cost, so
///               the watchdog flags it; the event is still delivered.
///  * kCorrupt — the unit is fed a deterministically bit-flipped copy of the
///               event's message and the injection is flagged as an
///               output-integrity fault.
enum class Misbehave : std::uint8_t {
  kNone = 0,  // clear an active misbehaviour
  kThrow = 1,
  kStall = 2,
  kCorrupt = 3,
};

std::string_view kind_name(FaultKind kind);
std::string_view misbehave_name(Misbehave mode);

struct FaultAction {
  FaultKind kind{};
  Duration at{};        // fire time, relative to injector arm
  Duration duration{};  // window length (windowed kinds only)
  double p = 0.0;       // probability (loss/dup) or drift factor
  net::Addr from = net::kNoAddr;  // link scope (loss) or target node
  net::Addr to = net::kNoAddr;    // link scope (loss)
  Duration jitter{};    // reorder max jitter; duplicate spacing
  std::vector<net::Addr> group_a;  // partition sides
  std::vector<net::Addr> group_b;
  std::string component;  // misbehave: target CFS unit name
  Misbehave mode = Misbehave::kNone;  // misbehave: injected fault mode

  bool operator==(const FaultAction&) const = default;
};

class FaultPlan {
 public:
  // -- builder ------------------------------------------------------------------
  /// Whole-medium (from/to = kNoAddr) or directed-link loss burst: every
  /// delivery in [at, at+window) is dropped with probability `p`.
  FaultPlan& loss_burst(Duration at, double p, Duration window,
                        net::Addr from = net::kNoAddr,
                        net::Addr to = net::kNoAddr);

  /// Each delivery in the window is duplicated with probability `p`
  /// (one extra copy, `spacing` behind the original).
  FaultPlan& duplicate(Duration at, double p, Duration window,
                       Duration spacing = usec(200));

  /// Deliveries in the window pick up uniform extra delay in
  /// [0, max_jitter], shuffling arrival order between in-flight frames.
  FaultPlan& reorder(Duration at, Duration max_jitter, Duration window);

  /// Cuts every (currently up) link between the two sides. Heal restores
  /// exactly the links that were cut.
  FaultPlan& partition(Duration at, std::vector<net::Addr> side_a,
                       std::vector<net::Addr> side_b);
  FaultPlan& heal(Duration at);

  /// Radio off / on (device-level crash, the testbed's crash model).
  FaultPlan& crash(Duration at, net::Addr node);
  FaultPlan& restart(Duration at, net::Addr node);

  /// Scales the node's transmit timing by `factor` for the window
  /// (clamped by the medium to [0.5, 2.0]).
  FaultPlan& clock_drift(Duration at, net::Addr node, double factor,
                         Duration window);

  /// Injects a component-level fault: the named CFS unit on `node` starts
  /// misbehaving in `mode` at `at`; a non-zero `window` schedules the
  /// matching clear (zero = until cleared by another action or by hand).
  /// Drives the supervision layer deterministically (ISSUE 5).
  FaultPlan& misbehave(Duration at, net::Addr node, std::string component,
                       Misbehave mode, Duration window = Duration{0});

  const std::vector<FaultAction>& actions() const { return actions_; }
  bool empty() const { return actions_.empty(); }
  std::size_t size() const { return actions_.size(); }

  // -- text format --------------------------------------------------------------
  /// Parses the line format documented at the top of this file without ever
  /// throwing: malformed or out-of-range input returns an Error naming the
  /// offending line.
  static Result<FaultPlan> try_parse(std::string_view text);

  /// Throwing wrapper over try_parse: raises std::invalid_argument with the
  /// same message on any error.
  static FaultPlan parse(std::string_view text);

  /// Renders the plan back into the text format (parse(to_text()) == *this).
  std::string to_text() const;

 private:
  std::vector<FaultAction> actions_;
};

}  // namespace mk::fault

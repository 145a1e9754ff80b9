// Guarded invocation: the OpenCom-level fault barrier under MANETKit's
// supervision layer (ISSUE 5).
//
// OpenCom components are in-process plug-ins — a call into a
// misbehaving component would otherwise unwind straight through the caller
// (here: the Framework Manager's dispatch loop, which must keep routing for
// every *other* unit). `guarded_invoke` turns an arbitrary invocation into a
// fault domain: any exception is captured into an InvokeFault descriptor and
// swallowed; the caller decides what the fault *means* (count it, trip a
// breaker, restart the component) — policy stays above the mechanism.
#pragma once

#include <exception>
#include <string>
#include <utility>

namespace mk::oc {

/// What escaped a guarded invocation. `what` is the exception message (or a
/// fixed marker for non-std exceptions) — diagnostic only; supervision keys
/// its decisions off the *fact* of the fault, never the text.
struct InvokeFault {
  std::string what;
};

/// Runs `fn` inside a fault barrier. Returns true when `fn` completed
/// normally; on any exception fills `fault` and returns false. Never
/// propagates (OOM while copying the message aborts, which is acceptable:
/// there is no meaningful recovery from allocation failure mid-unwind).
template <typename Fn>
bool guarded_invoke(Fn&& fn, InvokeFault& fault) noexcept {
  try {
    std::forward<Fn>(fn)();
    return true;
  } catch (const std::exception& e) {
    fault.what = e.what();
  } catch (...) {
    fault.what = "(non-std exception)";
  }
  return false;
}

/// Renders a captured exception_ptr's message (the timer-fire trap hands the
/// world one of these; see util::SimScheduler::set_fault_trap).
std::string describe_exception(std::exception_ptr ep) noexcept;

}  // namespace mk::oc

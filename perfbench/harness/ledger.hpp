// Outside-in cost ledger: exclusive (self) wall time and call counts per
// named layer, kept with a span stack because the program's calls nest
// (a timer fire delivers a frame, which dispatches an event, which installs
// a route, which the invariant checker walks). Spans are opened only from
// the benchmark's own wrappers around the program's public API; nothing in
// the program knows the ledger exists, and nothing reaches the journal.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Ledger {
 public:
  using Clock = std::chrono::steady_clock;

  struct Row {
    std::string name;
    std::int64_t self_ns = 0;
    std::uint64_t calls = 0;
  };

  /// Returns the id of the layer called `name`, creating it on first use.
  /// Resolve ids once, outside hot paths.
  int layer(std::string_view name);

  void begin(int id) { stack_.push_back({id, Clock::now(), 0}); }
  void end();

  /// Zeroes every row (ids stay valid). Call with no span open.
  void reset();

  const std::vector<Row>& rows() const { return rows_; }
  const Row* find(std::string_view name) const;

 private:
  struct Open {
    int id;
    Clock::time_point start;
    std::int64_t child_ns;
  };
  std::vector<Open> stack_;
  std::vector<Row> rows_;
};

/// RAII span; a null ledger makes it free apart from one branch.
class Span {
 public:
  Span(Ledger* ledger, int id) : ledger_(ledger) {
    if (ledger_ != nullptr) ledger_->begin(id);
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
};

}  // namespace perfbench

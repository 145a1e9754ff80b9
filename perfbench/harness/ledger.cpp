#include "ledger.hpp"

namespace perfbench {

int Ledger::layer(std::string_view name) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].name == name) return static_cast<int>(i);
  }
  rows_.push_back(Row{std::string(name), 0, 0});
  return static_cast<int>(rows_.size() - 1);
}

void Ledger::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t total =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           open.start)
          .count();
  Row& row = rows_[static_cast<std::size_t>(open.id)];
  row.self_ns += total - open.child_ns;
  ++row.calls;
  if (!stack_.empty()) stack_.back().child_ns += total;
}

void Ledger::reset() {
  for (Row& row : rows_) {
    row.self_ns = 0;
    row.calls = 0;
  }
}

const Ledger::Row* Ledger::find(std::string_view name) const {
  for (const Row& row : rows_) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

}  // namespace perfbench

// Lines-of-code accounting for the Table 3 / Fig. 7 reproduction: maps each
// MANETKit component to its source files, counts non-blank non-comment
// lines, and classifies components as reused-generic vs protocol-specific
// per protocol.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace mk::testbed {

struct ComponentLoc {
  std::string name;                  // e.g. "System CF Forward"
  std::vector<std::string> files;    // repo-relative paths
  bool generic = false;              // reused across protocols?
  std::set<std::string> used_by;     // {"OLSR", "DYMO", ...}
  std::size_t loc = 0;               // filled by count_manifest()
};

/// Counts non-blank, non-comment (// and /*...*/) lines of a C++ file.
/// Returns 0 for unreadable files.
std::size_t count_loc(const std::string& path);

/// Sums count_loc() over every C++ source (.hpp, .cpp) under `dir`,
/// recursively. Returns 0 for a missing directory.
std::size_t count_tree_loc(const std::string& dir);

/// Raw line count (blank and comment lines included, as `wc -l` reports)
/// over the same files as count_tree_loc().
std::size_t count_tree_lines(const std::string& dir);

/// The component manifest for this repository (paths relative to repo root).
std::vector<ComponentLoc> manifest();

/// Fills in `loc` for each entry, resolving paths against `repo_root`.
void count_manifest(std::vector<ComponentLoc>& entries,
                    const std::string& repo_root);

/// The source tree this library was built from (fixed at configure time,
/// so it holds wherever the build directory lives).
std::string repo_root();

struct ReuseSummary {
  std::size_t reused_components = 0;
  std::size_t specific_components = 0;
  std::size_t reused_loc = 0;
  std::size_t specific_loc = 0;

  double reused_fraction() const {
    std::size_t total = reused_loc + specific_loc;
    return total == 0 ? 0.0
                      : static_cast<double>(reused_loc) /
                            static_cast<double>(total);
  }
};

/// Per-protocol totals (Fig. 7's two bars per protocol).
ReuseSummary summarize(const std::vector<ComponentLoc>& entries,
                       const std::string& protocol);

}  // namespace mk::testbed

#include "testbed/loc_counter.hpp"

#include <filesystem>
#include <fstream>

namespace mk::testbed {

namespace fs = std::filesystem;

std::size_t count_loc(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::size_t loc = 0;
  bool in_block_comment = false;
  std::string line;
  while (std::getline(in, line)) {
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos) continue;
    std::string_view body{line.data() + i, line.size() - i};
    if (in_block_comment) {
      auto end = body.find("*/");
      if (end == std::string_view::npos) continue;
      in_block_comment = false;
      body.remove_prefix(end + 2);
      if (body.find_first_not_of(" \t") == std::string_view::npos) continue;
    }
    if (body.starts_with("//")) continue;
    if (body.starts_with("/*")) {
      if (body.find("*/", 2) == std::string_view::npos) in_block_comment = true;
      continue;
    }
    ++loc;
  }
  return loc;
}

namespace {

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

/// Sums `count(path)` over every C++ source (.hpp, .cpp) under `dir`.
std::size_t sum_tree(const std::string& dir,
                     std::size_t (*count)(const std::string&)) {
  std::error_code ec;
  std::size_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& p = it->path();
    if (it->is_regular_file() &&
        (p.extension() == ".hpp" || p.extension() == ".cpp")) {
      total += count(p.string());
    }
  }
  return total;
}

}  // namespace

std::size_t count_tree_loc(const std::string& dir) {
  return sum_tree(dir, count_loc);
}

std::size_t count_tree_lines(const std::string& dir) {
  return sum_tree(dir, count_lines);
}

std::string repo_root() { return MK_SOURCE_DIR; }

std::vector<ComponentLoc> manifest() {
  auto G = [](std::string name, std::vector<std::string> files,
              std::set<std::string> used_by) {
    return ComponentLoc{std::move(name), std::move(files), true,
                        std::move(used_by), 0};
  };
  auto S = [](std::string name, std::vector<std::string> files,
              std::set<std::string> used_by) {
    return ComponentLoc{std::move(name), std::move(files), false,
                        std::move(used_by), 0};
  };
  const std::set<std::string> all = {"OLSR", "DYMO", "AODV"};

  return {
      // ---- reused generic components (Table 3's left column) ----
      G("System CF Forward",
        {"src/core/system_cf.hpp", "src/core/system_cf.cpp"}, all),
      G("System CF State", {"src/net/kernel_table.hpp",
                            "src/net/kernel_table.cpp"}, all),
      G("Netlink (+ kernel module)",
        {"src/net/forwarding.hpp", "src/net/forwarding.cpp"}, {"DYMO", "AODV"}),
      G("Queue", {"src/util/queue.hpp"}, all),
      G("Threadpool", {"src/util/threadpool.hpp", "src/util/threadpool.cpp",
                       "src/core/executor.hpp", "src/core/executor.cpp"},
        all),
      G("Timer", {"src/util/timer.hpp", "src/util/timer.cpp"}, all),
      G("PacketGenerator/PacketParser",
        {"src/packetbb/packetbb.hpp", "src/packetbb/packetbb.cpp"}, all),
      G("RouteTable",
        {"src/protocols/olsr/route_calculator.hpp",
         "src/protocols/olsr/route_calculator.cpp"},
        {"OLSR"}),
      G("ManetControl CF",
        {"src/core/manet_protocol.hpp", "src/core/manet_protocol.cpp",
         "src/core/cfs.hpp"},
        all),
      // The MPR CF runs this CF's link-sensing core (HELLO emission and
      // handling, link soft set) through hooks, so OLSR reuses it too.
      G("NeighbourDetection CF",
        {"src/protocols/neighbor/neighbor_state.hpp",
         "src/protocols/neighbor/neighbor_state.cpp",
         "src/protocols/neighbor/neighbor_cf.hpp",
         "src/protocols/neighbor/neighbor_cf.cpp",
         "src/protocols/hello_codec.hpp"},
        all),
      G("MPRCalculator",
        {"src/protocols/mpr/mpr_calculator.hpp",
         "src/protocols/mpr/mpr_calculator.cpp"},
        {"OLSR", "DYMO"}),
      G("MPRState", {"src/protocols/mpr/mpr_state.hpp",
                     "src/protocols/mpr/mpr_state.cpp"},
        {"OLSR", "DYMO"}),
      G("Configurator (Framework Manager)",
        {"src/core/framework_manager.hpp", "src/core/framework_manager.cpp",
         "src/core/manetkit.hpp", "src/core/manetkit.cpp"},
        all),
      G("Event ontology", {"src/events/event.hpp", "src/events/event.cpp"},
        all),
      G("Reactive routing core",
        {"src/protocols/reactive.hpp", "src/protocols/reactive.cpp"},
        {"DYMO", "AODV"}),
      // RFC timing read by the CFs and the monolithic baselines alike; AODV
      // runs on the Neighbour Detection CF's HELLO timing.
      G("Protocol timing (RFC constants)", {"src/protocols/timing.hpp"}, all),

      // ---- protocol-specific components ----
      S("OLSR TC Handler/Generator + State",
        {"src/protocols/olsr/olsr_cf.hpp", "src/protocols/olsr/olsr_cf.cpp",
         "src/protocols/olsr/olsr_state.hpp",
         "src/protocols/olsr/olsr_state.cpp"},
        {"OLSR"}),
      S("OLSR MPR Hello handling",
        {"src/protocols/mpr/mpr_handlers.hpp",
         "src/protocols/mpr/mpr_handlers.cpp",
         "src/protocols/mpr/mpr_cf.hpp", "src/protocols/mpr/mpr_cf.cpp"},
        {"OLSR"}),
      S("OLSR variants (fish-eye, power-aware)",
        {"src/protocols/olsr/fisheye.hpp", "src/protocols/olsr/fisheye.cpp",
         "src/protocols/olsr/power_aware.hpp",
         "src/protocols/olsr/power_aware.cpp"},
        {"OLSR"}),
      S("DYMO RE/RERR handlers + State",
        {"src/protocols/dymo/dymo_cf.hpp", "src/protocols/dymo/dymo_cf.cpp",
         "src/protocols/dymo/dymo_state.hpp",
         "src/protocols/dymo/dymo_state.cpp"},
        {"DYMO"}),
      S("DYMO variants (multipath, optimised flooding)",
        {"src/protocols/dymo/multipath.hpp",
         "src/protocols/dymo/multipath.cpp",
         "src/protocols/dymo/opt_flood.hpp",
         "src/protocols/dymo/opt_flood.cpp"},
        {"DYMO"}),
      S("AODV handlers + State",
        {"src/protocols/aodv/aodv_cf.hpp", "src/protocols/aodv/aodv_cf.cpp",
         "src/protocols/aodv/aodv_state.hpp",
         "src/protocols/aodv/aodv_state.cpp"},
        {"AODV"}),
  };
}

void count_manifest(std::vector<ComponentLoc>& entries,
                    const std::string& repo_root) {
  for (auto& e : entries) {
    e.loc = 0;
    for (const auto& f : e.files) {
      e.loc += count_loc((fs::path(repo_root) / f).string());
    }
  }
}

ReuseSummary summarize(const std::vector<ComponentLoc>& entries,
                       const std::string& protocol) {
  ReuseSummary s;
  for (const auto& e : entries) {
    if (e.used_by.count(protocol) == 0) continue;
    if (e.generic) {
      ++s.reused_components;
      s.reused_loc += e.loc;
    } else {
      ++s.specific_components;
      s.specific_loc += e.loc;
    }
  }
  return s;
}

}  // namespace mk::testbed

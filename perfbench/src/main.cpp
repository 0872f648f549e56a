// perfbench: the repository benchmark driver (README.md in this
// directory). Usually started through run.py, which builds it first:
//
//   perfbench --workload replay|durable|wire|all --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--corrupt trace|journal]
//             [--scale F] [--git-sha SHA] [--src-digest HEX]
//
// Prints one provenance line, then the result line (the last line of
// stdout). Exits 1 when a correctness check fails, 2 on bad usage or an
// error that stops the run.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload replay|durable|wire|all "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--corrupt trace|journal] [--scale F] [--git-sha SHA] "
               "[--src-digest HEX]\n";
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config cfg;
  cfg.workload.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") cfg.workload = v;
      else if (flag == "--seed") cfg.seed = std::stoull(v);
      else if (flag == "--seconds") cfg.seconds = std::stod(v);
      else if (flag == "--trace") cfg.trace = std::stoi(v) != 0;
      else if (flag == "--work-dir") cfg.work_dir = v;
      else if (flag == "--corrupt") cfg.corrupt = v;
      else if (flag == "--scale") cfg.scale = std::stod(v);
      else if (flag == "--git-sha") cfg.git_sha = v;
      else if (flag == "--src-digest") cfg.src_digest = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (cfg.workload.empty()) usage("--workload is required");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be > 0");
  if (!(cfg.scale > 0.0) || cfg.scale > 1.0) usage("--scale must be in (0, 1]");
  if (!cfg.corrupt.empty() && cfg.corrupt != "trace" &&
      cfg.corrupt != "journal") {
    usage("--corrupt must be trace or journal");
  }
  if (cfg.work_dir.empty()) cfg.work_dir = ".bench_build/work";
  return cfg;
}

/// Runs one workload in this process; returns its result.
Result run_one(Config cfg) {
  cfg.work_dir += "/" + cfg.workload;
  reset_dir(cfg.work_dir);
  const CpuTimes cpu0 = cpu_times();
  Result result;
  if (cfg.workload == "replay") run_replay(cfg, result);
  else if (cfg.workload == "durable") run_durable(cfg, result);
  else if (cfg.workload == "wire") run_wire(cfg, result);
  else usage("unknown workload " + cfg.workload);
  const CpuTimes cpu1 = cpu_times();
  const double steal =
      cpu1.total > cpu0.total
          ? static_cast<double>(cpu1.steal - cpu0.steal) /
                static_cast<double>(cpu1.total - cpu0.total)
          : 0.0;
  result.set("host.steal_share", steal);
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("ok_share",
             result.attempted() == 0
                 ? 0.0
                 : static_cast<double>(result.attempted() - result.failed()) /
                       static_cast<double>(result.attempted()));
  std::cout << provenance_json(cfg, steal) << '\n';
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse(argc, argv);
  try {
    const std::vector<std::string> names =
        cfg.workload == "all"
            ? std::vector<std::string>{"replay", "durable", "wire"}
            : std::vector<std::string>{cfg.workload};
    bool correct = true;
    for (const std::string& name : names) {
      Config one = cfg;
      one.workload = name;
      const Result r = run_one(one);
      correct = correct && r.correct();
      std::cout << r.to_json(cfg.trace) << std::endl;
    }
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}

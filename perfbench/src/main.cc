// perfbench: one run of one workload of the end-to-end benchmark.
//
//   perfbench --workload ingest|serve|mixed --seed N --seconds S
//             --trace 0|1 --work-dir DIR --report FILE [--small]
//
// Inputs are generated from the seed before set-up. The untraced run
// (--trace 0) reports the end-to-end metrics; the traced run (--trace 1)
// reports the per-layer metrics, writes its spans to DIR as a
// chrome://tracing file and reports its own end-to-end numbers as
// `traced.*` diagnostics. The report is one JSON object written to FILE;
// the exit code is 1 when an output check failed. perfbench/run.py is
// the front end that builds this binary and prints the result.

#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"

namespace {

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ingest|serve|mixed "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --report FILE "
               "[--small]\n",
               why);
  std::exit(64);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value() == "1";
    } else if (arg == "--work-dir") {
      cfg.work_dir = value();
    } else if (arg == "--report") {
      report_path = value();
    } else if (arg == "--small") {
      cfg.small = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (cfg.work_dir.empty() || report_path.empty()) {
    Usage("--work-dir and --report are required");
  }
  if (!(cfg.seconds > 0.0)) Usage("--seconds must be positive");
  if (!perfbench::Configure(&cfg)) Usage("unknown workload");
  std::filesystem::create_directories(cfg.work_dir);

  perfbench::Report report;
  report.Info("workload", cfg.workload);
  report.Info("seed", std::to_string(cfg.seed));
  report.Info("trace", cfg.trace ? "1" : "0");
  report.Info("size", cfg.small ? "small" : "full");
  report.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Info("compiler", std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")");
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  report.Info("durability_fs", FilesystemName(cfg.work_dir));

  const uint64_t t0 = perfbench::Now();
  const perfbench::Inputs inputs = perfbench::MakeInputs(cfg);
  report.Diag("input_gen_s",
              static_cast<double>(perfbench::Now() - t0) * 1e-9, "s");
  report.Diag("seed_population", static_cast<double>(inputs.seed_population),
              "count");
  perfbench::RunWorkload(cfg, inputs, &report);

  std::ofstream out(report_path, std::ios::trunc);
  out << report.ToJson() << "\n";
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", report_path.c_str());
    return 2;
  }
  return report.all_checks_ok() ? 0 : 1;
}

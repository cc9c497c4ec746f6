// perfbench: runs one benchmark workload and prints one JSON object (its
// raw report) on stdout. perfbench/run.py builds this binary, adds the run
// record and the stored-digest check, and prints the final result line.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Prints `, "key": {"name": {"value": v, "unit": u}, ...}`.
void print_metrics(const char* key,
                   const std::vector<perfbench::Metric>& metrics) {
  std::printf(", \"%s\": {", key);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i == 0 ? "" : ", ",
                json_string(m.name).c_str(), m.value,
                json_string(m.unit).c_str());
  }
  std::printf("}");
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!perfbench::find_workload(workload, &options.workload)) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, ",
              json_string(workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("\"build_type\": %s, \"compiler\": %s, ",
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              json_string(PERFBENCH_COMPILER).c_str());
  std::printf("\"replays\": %llu, \"jobs_per_replay\": %llu, ",
              static_cast<unsigned long long>(report.replays),
              static_cast<unsigned long long>(report.jobs_per_replay));
  std::printf("\"attempted\": %llu, \"failed\": %llu, \"digest\": %s, ",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              json_string(report.digest).c_str());
  std::printf("\"failures\": [");
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ",
                json_string(report.failures[i]).c_str());
  }
  std::printf("]");
  print_metrics("metrics", report.metrics);
  std::printf("}\n");
  return 0;
}

// Entry point of the benchmark program.
//
//   perfbench --workload <hot_lookup|cold_lake|ingest_search> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --self-test
//
// Prints progress on stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics, or
// with --trace 1 the per-layer metrics. Exits non-zero on a wrong answer or
// a failed set-up.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace {

// Taken during static initialisation: the closest the program gets to its
// own start, which set-up time is measured from.
const perfbench::SteadyTime g_process_start = std::chrono::steady_clock::now();

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <hot_lookup|cold_lake|"
               "ingest_search> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n"
               "       perfbench --self-test\n");
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

void PrintResult(const perfbench::RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.start = g_process_start;
  cfg.out_dir = ".";
  uint64_t seconds = 10, trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-test") return perfbench::RunSelfTest();
    if (val == nullptr) return Usage();
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      if (!ParseUint(val, &cfg.seed)) return Usage();
    } else if (arg == "--seconds") {
      if (!ParseUint(val, &seconds) || seconds == 0 || seconds > 120) {
        return Usage();
      }
    } else if (arg == "--trace") {
      if (!ParseUint(val, &trace) || trace > 1) return Usage();
    } else if (arg == "--out-dir") {
      cfg.out_dir = val;
    } else {
      return Usage();
    }
    ++i;
  }
  cfg.seconds = static_cast<int>(seconds);
  cfg.trace = trace == 1;
  // No more client threads than cores, and at most four.
  cfg.threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);

  perfbench::RunResult result;
  int rc = 0;
  if (cfg.workload == "hot_lookup") {
    rc = perfbench::RunHotLookup(cfg, &result);
  } else if (cfg.workload == "cold_lake") {
    rc = perfbench::RunColdLake(cfg, &result);
  } else if (cfg.workload == "ingest_search") {
    rc = perfbench::RunIngestSearch(cfg, &result);
  } else {
    return Usage();
  }
  if (rc != 0) {
    std::fprintf(stderr, "FAILED: %s\n", result.error.c_str());
    return rc;
  }
  if (!result.correct) {
    std::fprintf(stderr, "WRONG ANSWER: %s\n", result.error.c_str());
  }
  PrintResult(result);
  return result.correct ? 0 : 1;
}

// Shared types of the benchmark program: run configuration, the result it
// prints, and the per-query ledger every workload fills.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/rottnest.h"
#include "counting_store.h"
#include "obs/metrics.h"
#include "oracle.h"

namespace rottnest::serve {
class QueryEngine;
}  // namespace rottnest::serve

namespace perfbench {

using SteadyTime = std::chrono::steady_clock::time_point;
inline double SecondsSince(SteadyTime t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct RunConfig {
  SteadyTime start;     ///< Process start: set-up time is measured from it.
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< Where a traced run writes its span file.
  size_t threads = 4;   ///< Client threads and client pool width (<= nproc).
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string error;  ///< First wrong answer or fatal error, for stderr.
};

/// Every physical counter a query can move: the counting store's requests
/// by key class, the client cache's outcomes, and the metadata plane's
/// replayed log entries.
struct Counters {
  IoCounts io;
  uint64_t cache_hits = 0, cache_misses = 0, cache_coalesced = 0,
           cache_wave_hits = 0, cache_lists = 0;
  uint64_t replay_gets = 0;

  /// `replay` is the registry counter the lake logs mirror into.
  static Counters Take(const CountingStore& store,
                       const rottnest::core::Rottnest& client,
                       const rottnest::obs::Counter* replay);
  Counters operator-(const Counters& base) const;
  Counters& operator+=(const Counters& d);
};

/// Checks that every physical index/data request reaching the counting
/// store was a client-cache miss (or a list the cache passed through): the
/// store's request count equals the cache's misses plus the uncached
/// metadata reads, two totals counted on independent paths. Returns what
/// disagrees, or an empty string.
std::string Reconcile(const Counters& c);

/// What the timed (or traced) queries of one phase did.
struct QueryLedger {
  std::vector<double> latency_ms;
  std::vector<double> kind_ms[6];  ///< Latency by core::QueryKind.
  uint64_t ok = 0;      ///< Answered and checked correct.
  uint64_t failed = 0;  ///< Returned an error status.
  uint64_t wrong = 0;   ///< Answered, but the oracle disagreed.
  std::string first_wrong;
  double wall_s = 0;
  Counters counters;    ///< Physical work attributed to these queries.
  // Per-query shape, summed (SearchResult fields and the IoTrace depth).
  uint64_t io_depth = 0, pages_probed = 0, files_scanned = 0,
           indexes_queried = 0;
  std::vector<double> serve_wait_ms;  ///< Client latency − engine wall.
  uint64_t waves = 0, wave_queries = 0;

  uint64_t queries() const { return ok + failed + wrong; }
  void Merge(const QueryLedger& o);
  /// Prints the latency of each query kind to stderr.
  void PrintKinds(const char* label) const;
};

/// Runs one query straight on the client (`engine` null) or through the
/// serving engine, times it, checks it against `oracle` and records it.
/// With `traced` the query carries its own IoTrace and a root span.
void RunQuery(rottnest::core::Rottnest* client,
              rottnest::serve::QueryEngine* engine, rottnest::core::Query q,
              Oracle* oracle, bool traced, QueryLedger* ledger);

/// Peak resident set size of this process, from /proc/self/status.
double PeakRssMb();

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> v, double q);

int RunHotLookup(const RunConfig& cfg, RunResult* out);
int RunColdLake(const RunConfig& cfg, RunResult* out);
int RunIngestSearch(const RunConfig& cfg, RunResult* out);
/// Feeds each oracle check a wrong answer and shows that it fails.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

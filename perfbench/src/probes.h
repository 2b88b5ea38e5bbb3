// Direct timings of single layers on a workload's own state, for the traced
// run: the lake's snapshot and metadata reads, each index kind's query
// function on a committed index object (warm reader), the page reader on
// the pages the queries probe, and the LZ decoder on those pages' bytes.
// Needles come from the workload's own queries.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <vector>

#include "bench.h"

namespace perfbench {

struct ProbeTarget {
  rottnest::core::Rottnest* client = nullptr;
  rottnest::lake::Table* table = nullptr;
  /// The backing store below the counting decorator: no cache, no latency,
  /// so index, page and decode timings are the module's own CPU.
  rottnest::objectstore::ObjectStore* raw = nullptr;
  std::vector<rottnest::core::Query> sample;  ///< The workload's queries.
};

/// Appends lake.snapshot_ms, lake.metadata_read_ms, index.*_us,
/// format.read_pages_us_per_page and compress.lz_decode_mb_per_s.
rottnest::Status ProbeLayers(const ProbeTarget& target,
                             std::vector<Metric>* out);

/// Appends serve.queries_per_wave, serve.shared_gets_per_query and
/// serve.wait_ms_p50 from `ledger` (a phase run through the engine).
void AppendServeMetrics(const QueryLedger& ledger, std::vector<Metric>* out);

/// For workloads that call the client directly: runs `sample` once more
/// through a serving engine (one client thread) and appends the serve.*
/// metrics of that pass. Answers are checked like any other.
rottnest::Status ProbeServe(rottnest::core::Rottnest* client,
                            const std::vector<rottnest::core::Query>& sample,
                            Oracle* oracle, std::vector<Metric>* out,
                            QueryLedger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_

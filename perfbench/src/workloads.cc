// The three workloads. Each builds its lake, times its queries (and, for
// ingest_search, its maintenance), checks every answer with the oracle and
// fills a RunResult with the end-to-end metrics — or, in a traced run, the
// per-layer metrics of a second, traced phase over the same state.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "common/hash.h"
#include "common/random.h"
#include "dataset.h"
#include "objectstore/fault_injection.h"
#include "probes.h"
#include "serve/query_engine.h"
#include "spans.h"
#include "workload/multi_tenant.h"

namespace perfbench {

using rottnest::Mix64;
using rottnest::Random;
using rottnest::Result;
using rottnest::SimulatedClock;
using rottnest::Status;
using rottnest::core::Query;
using rottnest::core::QueryResponse;
using rottnest::core::Rottnest;
using rottnest::objectstore::InMemoryObjectStore;
using rottnest::serve::QueryEngine;
using rottnest::workload::DatasetSpec;

namespace {

constexpr char kIndexDir[] = "idx";
constexpr size_t kK = 4;  ///< Match budget of every search.

rottnest::core::RottnestOptions ClientOptions(const RunConfig& cfg,
                                              uint64_t cache_bytes) {
  rottnest::core::RottnestOptions o;
  o.index_dir = kIndexDir;
  o.fm.block_size = 4096;
  o.fm.sample_rate = 8;
  o.ivfpq.nlist = 16;
  o.ivfpq.num_subquantizers = 4;
  o.num_threads = cfg.threads;
  o.cache_bytes = cache_bytes;
  return o;
}

/// A traced run splits its time between an untraced and a traced phase of
/// the same work (their difference is the tracing overhead).
double PhaseSeconds(const RunConfig& cfg) {
  return cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
}

DatasetSpec Spec(uint64_t seed, uint64_t rows) {
  DatasetSpec spec;
  spec.total_rows = rows;
  spec.seed = seed;
  spec.doc_chars = 160;
  spec.vector_dim = 16;
  return spec;
}

/// Hot needles drawn from the dataset's own vocabulary and rows.
struct Needles {
  std::vector<uint64_t> rows;
  std::vector<std::string> misses;
  std::vector<std::string> patterns;
  std::vector<std::string> terms;

  Needles(const DatasetSpec& spec, uint64_t seed, size_t hot) {
    Random rng(Mix64(seed ^ 0x6e6565646c6573ull));
    rottnest::workload::TextGenerator text(spec.seed);
    rottnest::workload::UuidGenerator ids(spec.seed, spec.uuid_bytes);
    for (size_t i = 0; i < hot; ++i) {
      rows.push_back(rng.Uniform(spec.total_rows));
      // Ordinals past the generated rows: ids that are not in the lake.
      misses.push_back(ids.IdFor(spec.total_rows + 1 + i));
      patterns.push_back(text.SamplePattern(2));
      // Selective keyword terms from one narrow frequency band (Zipf
      // ranks 2000-3000, a few dozen rows each): posting lists narrow the
      // pages to probe, and every seed's terms cost about the same.
      terms.push_back(text.Word(2000 + rng.Uniform(1000)));
    }
  }
};

/// Vector queries near hot rows (the probes need every index kind).
void VectorQueries(const DatasetSpec& spec, uint64_t seed, size_t n,
                   std::vector<Query>* out) {
  Needles needles(spec, seed, n);
  rottnest::workload::VectorGenerator vectors(spec.seed, spec.vector_dim);
  for (uint64_t r : needles.rows) {
    out->push_back(Query::Vector("vec", vectors.QueryNear(r), kK));
  }
}

Query Keyword(const std::string& a, const std::string& b, bool all) {
  return Query::MakeKeyword(
      "body", {a, b},
      all ? rottnest::core::KeywordMode::kAnd : rottnest::core::KeywordMode::kOr,
      kK);
}

/// Fails the run on any wrong answer or unreconciled count.
void Judge(const QueryLedger& l, bool reconcile, RunResult* out) {
  if (l.wrong > 0 && out->correct) {
    out->correct = false;
    out->error = l.first_wrong;
  }
  if (reconcile && out->correct) {
    std::string err = Reconcile(l.counters);
    if (!err.empty()) {
      out->correct = false;
      out->error = err;
    }
  }
}

void AppendEndToEnd(double setup_s, const MaintenanceLedger& m,
                    uint64_t index_bytes, const QueryLedger& l,
                    std::vector<Metric>* out) {
  const double q = static_cast<double>(std::max<uint64_t>(l.queries(), 1));
  out->push_back({"setup_s", setup_s, "s"});
  out->push_back({"index_rows_per_s",
                  static_cast<double>(m.rows_indexed) /
                      std::max(m.maintenance_s(), 1e-9),
                  "rows/s"});
  out->push_back({"index_bytes", static_cast<double>(index_bytes), "bytes"});
  out->push_back({"query_p50_ms", Quantile(l.latency_ms, 0.50), "ms"});
  out->push_back({"query_p95_ms", Quantile(l.latency_ms, 0.95), "ms"});
  out->push_back({"queries_per_s", q / std::max(l.wall_s, 1e-9), "queries/s"});
  out->push_back({"requests_per_query",
                  static_cast<double>(l.counters.io.total_requests()) / q,
                  "requests"});
  out->push_back({"read_bytes_per_query",
                  static_cast<double>(l.counters.io.total_bytes_read()) / q,
                  "bytes"});
  out->push_back({"peak_rss_mb", PeakRssMb(), "MB"});
}

void AppendPerLayer(const MaintenanceLedger& m, uint64_t write_bytes,
                    const QueryLedger& l, std::vector<Metric>* out) {
  const double q = static_cast<double>(std::max<uint64_t>(l.queries(), 1));
  const Counters& c = l.counters;
  auto per_query = [&](uint64_t v) { return static_cast<double>(v) / q; };
  auto per_call = [](double s, uint64_t n) {
    return n == 0 ? 0.0 : s / static_cast<double>(n);
  };
  out->push_back({"objectstore.meta_requests_per_query",
                  per_query(c.io.requests[kMeta]), "requests"});
  out->push_back({"objectstore.index_requests_per_query",
                  per_query(c.io.requests[kIndex]), "requests"});
  out->push_back({"objectstore.index_bytes_per_query",
                  per_query(c.io.bytes_read[kIndex]), "bytes"});
  out->push_back({"objectstore.data_requests_per_query",
                  per_query(c.io.requests[kData]), "requests"});
  out->push_back({"objectstore.data_bytes_per_query",
                  per_query(c.io.bytes_read[kData]), "bytes"});
  out->push_back({"objectstore.wait_ms_per_query",
                  static_cast<double>(c.io.wait_ns) / 1e6 / q, "ms"});
  const uint64_t lookups = c.cache_hits + c.cache_misses;
  out->push_back({"objectstore.cache_hit_ratio",
                  lookups == 0 ? 0.0
                               : static_cast<double>(c.cache_hits) /
                                     static_cast<double>(lookups),
                  "ratio"});
  out->push_back({"objectstore.write_bytes_per_row",
                  static_cast<double>(write_bytes) /
                      static_cast<double>(std::max<uint64_t>(m.rows_appended, 1)),
                  "bytes"});
  out->push_back({"lake.replay_gets_per_query", per_query(c.replay_gets),
                  "requests"});
  out->push_back({"lake.append_ms", per_call(m.append_s * 1e3, m.appends),
                  "ms"});
  out->push_back({"core.io_depth_per_query", per_query(l.io_depth), "rounds"});
  out->push_back({"core.pages_probed_per_query", per_query(l.pages_probed),
                  "pages"});
  out->push_back({"core.files_scanned_per_query", per_query(l.files_scanned),
                  "files"});
  out->push_back({"core.indexes_queried_per_query",
                  per_query(l.indexes_queried), "indexes"});
  out->push_back({"core.index_s", per_call(m.index_s, m.index_calls), "s"});
  out->push_back({"core.compact_s", per_call(m.compact_s, m.compact_calls),
                  "s"});
  out->push_back({"core.vacuum_s", per_call(m.vacuum_s, m.vacuum_calls), "s"});
}

/// Writes the traced run's spans with the tracing overhead: the traced
/// phase's end-to-end latency against the untraced phase's.
void WriteTrace(const RunConfig& cfg, const QueryLedger& untraced,
                const QueryLedger& traced, RunResult* out) {
  const double p50_off = Quantile(untraced.latency_ms, 0.5);
  const double p50_on = Quantile(traced.latency_ms, 0.5);
  const double qps_off = static_cast<double>(untraced.queries()) /
                         std::max(untraced.wall_s, 1e-9);
  const double qps_on = static_cast<double>(traced.queries()) /
                        std::max(traced.wall_s, 1e-9);
  char header[512];
  std::snprintf(header, sizeof(header),
                "{\"workload\":\"%s\",\"seed\":%llu,"
                "\"untraced_p50_ms\":%.6f,\"traced_p50_ms\":%.6f,"
                "\"overhead_p50_ms\":%.6f,\"untraced_queries_per_s\":%.3f,"
                "\"traced_queries_per_s\":%.3f}",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), p50_off, p50_on,
                p50_on - p50_off, qps_off, qps_on);
  const std::string path = cfg.out_dir + "/spans-" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".jsonl";
  if (!WriteSpans(path, header)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "spans: %s\n", path.c_str());
  }
  std::fprintf(stderr, "tracing overhead: p50 %.4f -> %.4f ms\n", p50_off,
               p50_on);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared helpers.

std::string Reconcile(const Counters& c) {
  const uint64_t physical = c.io.total_requests();
  const uint64_t expected =
      c.cache_misses + c.cache_lists + c.io.requests[kMeta];
  if (physical == expected) return "";
  return "store saw " + std::to_string(physical) +
         " requests, cache misses + lists + metadata reads = " +
         std::to_string(expected);
}

Counters Counters::Take(const CountingStore& store, const Rottnest& client,
                        const rottnest::obs::Counter* replay) {
  Counters c;
  c.io = store.Counts();
  if (const auto* cache = client.cache()) {
    const auto& s = cache->stats();
    c.cache_hits = s.cache_hits.load();
    c.cache_misses = s.cache_misses.load();
    c.cache_coalesced = s.cache_coalesced.load();
    c.cache_wave_hits = s.cache_wave_hits.load();
    c.cache_lists = s.lists.load();
  }
  c.replay_gets = replay != nullptr ? replay->value() : 0;
  return c;
}

Counters Counters::operator-(const Counters& b) const {
  Counters d;
  d.io = io - b.io;
  d.cache_hits = cache_hits - b.cache_hits;
  d.cache_misses = cache_misses - b.cache_misses;
  d.cache_coalesced = cache_coalesced - b.cache_coalesced;
  d.cache_wave_hits = cache_wave_hits - b.cache_wave_hits;
  d.cache_lists = cache_lists - b.cache_lists;
  d.replay_gets = replay_gets - b.replay_gets;
  return d;
}

Counters& Counters::operator+=(const Counters& d) {
  for (int c = 0; c < kNumClasses; ++c) {
    io.requests[c] += d.io.requests[c];
    io.bytes_read[c] += d.io.bytes_read[c];
  }
  io.writes += d.io.writes;
  io.bytes_written += d.io.bytes_written;
  io.wait_ns += d.io.wait_ns;
  cache_hits += d.cache_hits;
  cache_misses += d.cache_misses;
  cache_coalesced += d.cache_coalesced;
  cache_wave_hits += d.cache_wave_hits;
  cache_lists += d.cache_lists;
  replay_gets += d.replay_gets;
  return *this;
}

void QueryLedger::Merge(const QueryLedger& o) {
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  for (int k = 0; k < 6; ++k) {
    kind_ms[k].insert(kind_ms[k].end(), o.kind_ms[k].begin(),
                      o.kind_ms[k].end());
  }
  ok += o.ok;
  failed += o.failed;
  wrong += o.wrong;
  if (first_wrong.empty()) first_wrong = o.first_wrong;
  counters += o.counters;
  io_depth += o.io_depth;
  pages_probed += o.pages_probed;
  files_scanned += o.files_scanned;
  indexes_queried += o.indexes_queried;
  serve_wait_ms.insert(serve_wait_ms.end(), o.serve_wait_ms.begin(),
                       o.serve_wait_ms.end());
  waves += o.waves;
  wave_queries += o.wave_queries;
}

void QueryLedger::PrintKinds(const char* label) const {
  for (int k = 0; k < 6; ++k) {
    if (kind_ms[k].empty()) continue;
    std::fprintf(stderr, "%s %-9s n=%-6zu p50 %8.3f ms  p95 %8.3f ms\n", label,
                 rottnest::core::QueryKindName(
                     static_cast<rottnest::core::QueryKind>(k)),
                 kind_ms[k].size(), Quantile(kind_ms[k], 0.5),
                 Quantile(kind_ms[k], 0.95));
  }
}

void RunQuery(Rottnest* client, QueryEngine* engine, Query q, Oracle* oracle,
              bool traced, QueryLedger* ledger) {
  rottnest::objectstore::IoTrace trace;
  if (traced) q.options.trace = &trace;
  const SteadyTime t0 = std::chrono::steady_clock::now();
  Result<QueryResponse> r = [&] {
    QuerySpan span(engine != nullptr ? "serve.Execute" : "core.Execute");
    return engine != nullptr ? engine->Execute(q) : client->Execute(q);
  }();
  const double ms = SecondsSince(t0) * 1e3;
  ledger->latency_ms.push_back(ms);
  ledger->kind_ms[static_cast<int>(q.kind)].push_back(ms);
  if (!r.ok()) {
    ledger->failed += 1;
    if (ledger->first_wrong.empty()) {
      ledger->first_wrong = "query failed: " + r.status().ToString();
    }
    return;
  }
  const std::string err = oracle->Check(q, r.value());
  if (err.empty()) {
    ledger->ok += 1;
  } else {
    ledger->wrong += 1;
    if (ledger->first_wrong.empty()) ledger->first_wrong = err;
  }
  const auto& res = r.value().result;
  ledger->pages_probed += res.pages_probed;
  ledger->files_scanned += res.files_scanned;
  ledger->indexes_queried += res.indexes_queried;
  if (traced) ledger->io_depth += trace.depth();
  if (engine != nullptr && res.stats.wall_micros > 0) {
    ledger->serve_wait_ms.push_back(
        ms - static_cast<double>(res.stats.wall_micros) / 1e3);
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

// ---------------------------------------------------------------------------
// hot_lookup: one client calling Execute on a small, fully cached lake.

namespace {

constexpr uint64_t kHotFiles = 16;
constexpr uint64_t kHotRowsPerFile = 1250;
constexpr uint64_t kHotCacheBytes = 512ull << 20;
constexpr size_t kHotSlots = 260;  ///< 13 rounds of the 20-slot mix.

/// Up to `n` keys of `rows_with` (key -> rows it occurs in) that occur in
/// between `lo` and `hi` rows, picked at random: needles of one
/// selectivity, so every seed's queries of a kind cost about the same.
std::vector<std::string> PickByRowCount(
    const std::map<std::string, uint64_t>& rows_with, uint64_t lo,
    uint64_t hi, size_t n, Random* rng) {
  std::vector<std::string> band;
  for (const auto& [key, count] : rows_with) {
    if (count >= lo && count <= hi) band.push_back(key);
  }
  std::vector<std::string> out;
  for (size_t i = 0; i < n && !band.empty(); ++i) {
    const size_t pick = rng->Uniform(band.size());
    out.push_back(band[pick]);
    band.erase(band.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return out;
}

/// Rows each keyword term, and each two-word phrase "a b" (words joined by
/// one space), occurs in.
void CountRowsWith(const Rows& rows, std::map<std::string, uint64_t>* terms,
                   std::map<std::string, uint64_t>* phrases) {
  for (const std::string& body : rows.body) {
    std::vector<std::string> toks = Oracle::Tokens(body);
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    for (std::string& t : toks) ++(*terms)[std::move(t)];
    std::set<std::string> seen;
    size_t start = 0;
    while (start < body.size()) {
      const size_t space = body.find(' ', start);
      if (space == std::string::npos) break;
      const size_t next = body.find(' ', space + 1);
      const size_t end = next == std::string::npos ? body.size() : next;
      std::string phrase = body.substr(start, end - start);
      if (phrase.find('.') == std::string::npos) seen.insert(std::move(phrase));
      start = space + 1;
    }
    for (const std::string& p : seen) ++(*phrases)[p];
  }
}

std::vector<Query> HotQueries(const DatasetSpec& spec, const Rows& rows,
                              uint64_t seed) {
  Needles n(spec, seed, 64);
  Random rng(Mix64(seed ^ 0x686f74ull));
  auto zipf = [&](size_t size) { return rng.NextZipf(size, 1.0); };
  std::map<std::string, uint64_t> term_rows, phrase_rows;
  CountRowsWith(rows, &term_rows, &phrase_rows);
  // Keyword terms in 20-30 rows; phrases in 40-80 rows, past the 4k + 16
  // occurrences a substring query locates, so each probes alike.
  const std::vector<std::string> terms =
      PickByRowCount(term_rows, 20, 30, 64, &rng);
  const std::vector<std::string> phrases =
      PickByRowCount(phrase_rows, 40, 80, 32, &rng);
  // The mix repeats every 20 slots, so every seed runs the same shares:
  // 8 UUID hits, 3 UUID misses, 5 keyword (AND and OR in turn), 4 substring.
  static const char kMix[] = "HHMKSHHKHMSKHHKSHMKS";
  std::vector<Query> out;
  bool all = true;
  for (size_t s = 0; s < kHotSlots; ++s) {
    switch (kMix[s % 20]) {
      case 'H':
        out.push_back(Query::Uuid("uuid", rows.uuid[n.rows[zipf(64)]], kK));
        break;
      case 'M':
        out.push_back(Query::Uuid("uuid", n.misses[zipf(16)], kK));
        break;
      case 'K': {
        const std::string& a = terms[rng.Uniform(terms.size())];
        const std::string& b = terms[rng.Uniform(terms.size())];
        out.push_back(Keyword(a, b, all));
        all = !all;
        break;
      }
      default:
        out.push_back(Query::Substring("body", phrases[zipf(32)], kK));
        break;
    }
  }
  return out;
}

}  // namespace

int RunHotLookup(const RunConfig& cfg, RunResult* out) {
  const DatasetSpec spec = Spec(cfg.seed, kHotFiles * kHotRowsPerFile);
  const Rows rows = GenerateRows(spec);

  SimulatedClock clock;
  InMemoryObjectStore mem(&clock);
  CountingStore store(&mem, kIndexDir);
  rottnest::obs::MetricsRegistry registry;
  const rottnest::obs::Counter* replay =
      registry.GetCounter("meta.replay_gets");
  auto table_r = rottnest::lake::Table::Create(
      &store, "lake/hot", rottnest::workload::DatasetSchema(spec),
      BenchWriterOptions());
  if (!table_r.ok()) {
    out->error = table_r.status().ToString();
    return 1;
  }
  std::unique_ptr<rottnest::lake::Table> table = std::move(table_r).value();
  table->AttachMetrics(&registry);

  FileMap files;
  MaintenanceLedger maint;
  {
    Rottnest setup(&store, table.get(), ClientOptions(cfg, 0));
    for (uint64_t f = 0; f < kHotFiles; ++f) {
      Status s = AppendFile(table.get(), rows, spec, f * kHotRowsPerFile,
                            (f + 1) * kHotRowsPerFile, &files, &maint);
      if (s.ok() && (f + 1) % (kHotFiles / 2) == 0) {
        s = IndexAll(&setup, kHotFiles / 2 * kHotRowsPerFile, &maint);
      }
      if (!s.ok()) {
        out->error = s.ToString();
        return 1;
      }
    }
    Status s = CompactAndVacuum(&setup, &maint);
    if (!s.ok()) {
      out->error = s.ToString();
      return 1;
    }
  }
  const uint64_t write_bytes = store.Counts().bytes_written;

  Rottnest client(&store, table.get(), ClientOptions(cfg, kHotCacheBytes));
  client.metadata().AttachMetrics(&registry);
  const std::vector<Query> queries = HotQueries(spec, rows, cfg.seed);

  const SteadyTime oracle_t0 = std::chrono::steady_clock::now();
  Oracle oracle(&rows, &files);
  for (const Query& q : queries) oracle.Warm(q);
  const double oracle_s = SecondsSince(oracle_t0);

  // Untimed warm-up: each distinct query once fills the cache with the
  // whole working set.
  QueryLedger warm;
  std::set<std::string> seen;
  for (const Query& q : queries) {
    std::string key = q.needle + "|" + std::to_string(static_cast<int>(q.kind));
    for (const std::string& t : q.terms) key += "|" + t;
    key += q.options.params.keyword.mode == rottnest::core::KeywordMode::kAnd
               ? "&"
               : "+";
    if (seen.insert(key).second) {
      RunQuery(&client, nullptr, q, &oracle, false, &warm);
    }
  }
  Judge(warm, false, out);
  const double setup_s = SecondsSince(cfg.start) - oracle_s;

  auto phase = [&](bool traced) {
    QueryLedger l;
    const Counters c0 = Counters::Take(store, client, replay);
    const SteadyTime t0 = std::chrono::steady_clock::now();
    do {
      for (const Query& q : queries) {
        RunQuery(&client, nullptr, q, &oracle, traced, &l);
      }
    } while (SecondsSince(t0) < PhaseSeconds(cfg));
    l.wall_s = SecondsSince(t0);
    l.counters = Counters::Take(store, client, replay) - c0;
    Judge(l, /*reconcile=*/true, out);
    return l;
  };
  const QueryLedger timed = phase(false);
  std::fprintf(stderr,
               "hot_lookup: %llu queries, cache holds %llu bytes of %llu\n",
               static_cast<unsigned long long>(timed.queries()),
               static_cast<unsigned long long>(client.cache()->ResidentBytes()),
               static_cast<unsigned long long>(kHotCacheBytes));
  timed.PrintKinds("hot_lookup");
  auto index_bytes = LiveIndexBytes(&client);
  if (!index_bytes.ok()) {
    out->error = index_bytes.status().ToString();
    return 1;
  }
  out->attempted = timed.queries();
  out->failed = timed.failed;
  if (!cfg.trace) {
    AppendEndToEnd(setup_s, maint, index_bytes.value(), timed, &out->metrics);
    return 0;
  }

  EnableSpans(true);
  const QueryLedger traced = phase(true);
  AppendPerLayer(maint, write_bytes, traced, &out->metrics);
  ProbeTarget target{&client, table.get(), &mem, queries};
  VectorQueries(spec, cfg.seed, 16, &target.sample);
  Status s = ProbeLayers(target, &out->metrics);
  QueryLedger serve_pass;
  if (s.ok()) {
    s = ProbeServe(&client, queries, &oracle, &out->metrics, &serve_pass);
  }
  EnableSpans(false);
  if (!s.ok()) {
    out->error = s.ToString();
    return 1;
  }
  Judge(serve_pass, false, out);
  out->attempted = traced.queries() + serve_pass.queries();
  out->failed = traced.failed + serve_pass.failed;
  WriteTrace(cfg, timed, traced, out);
  return 0;
}

// ---------------------------------------------------------------------------
// cold_lake: several clients through the serving engine over a many-commit
// lake on a store with real per-request latency and a small cache.

namespace {

constexpr uint64_t kColdFiles = 240;
constexpr uint64_t kColdRowsPerFile = 80;
constexpr uint64_t kColdIndexEvery = 30;     ///< Files per Index round.
constexpr uint64_t kColdIndexedFiles = 210;  ///< Later files stay unindexed.
constexpr uint64_t kColdCompactAt = 90;      ///< Compact the first rounds.
constexpr rottnest::Micros kColdLatencyMicros = 400;
constexpr uint64_t kColdCacheBytes = 2ull << 20;
constexpr int kColdWarmRequests = 8;     ///< Untimed requests per client.
constexpr int kColdOracleRequests = 256;  ///< Slots pre-answered per client.

rottnest::workload::MultiTenantSpec ColdSpec(const DatasetSpec& data,
                                             int clients) {
  rottnest::workload::MultiTenantSpec mt;
  mt.dataset = data;
  mt.tenants = 4;
  mt.clients = clients;
  // The request schedule (each slot's kind, tenant and needle rank) is the
  // same in every run; the seed changes the data, and with it the needles.
  // A schedule drawn from the seed gave each run its own share of the slow
  // keyword queries, among which p95 lies.
  mt.seed = 0x636f6c64ull;
  mt.k = kK;
  // Keyword queries run about twice as long as the rest here, and a wave
  // lasts as long as its slowest member; a small keyword share keeps most
  // waves free of one, so the median sits well inside one mode.
  mt.w_uuid = 0.30;
  mt.w_substring = 0.25;
  mt.w_count = 0.10;
  mt.w_regex = 0.10;
  mt.w_vector = 0.15;
  mt.w_keyword = 0.10;
  mt.value_zipf_s = 0.9;
  mt.hot_values = 64;
  return mt;
}

}  // namespace

int RunColdLake(const RunConfig& cfg, RunResult* out) {
  const DatasetSpec spec = Spec(cfg.seed, kColdFiles * kColdRowsPerFile);
  const Rows rows = GenerateRows(spec);
  const int clients = static_cast<int>(cfg.threads);

  SimulatedClock clock;
  InMemoryObjectStore mem(&clock);
  rottnest::objectstore::FaultOptions fopts;
  fopts.seed = Mix64(cfg.seed);
  fopts.base_latency_micros = kColdLatencyMicros;
  // Set-up and queries alike wait for real on every request, so the timed
  // figures follow the store more than the shared host's CPU speed.
  rottnest::objectstore::FaultInjectingStore slow(&mem, fopts);
  CountingStore store(&slow, kIndexDir);
  rottnest::obs::MetricsRegistry registry;
  const rottnest::obs::Counter* replay =
      registry.GetCounter("meta.replay_gets");
  auto table_r = rottnest::lake::Table::Create(
      &store, "lake/cold", rottnest::workload::DatasetSchema(spec),
      BenchWriterOptions());
  if (!table_r.ok()) {
    out->error = table_r.status().ToString();
    return 1;
  }
  std::unique_ptr<rottnest::lake::Table> table = std::move(table_r).value();
  table->AttachMetrics(&registry);

  FileMap files;
  MaintenanceLedger maint;
  {
    Rottnest setup(&store, table.get(), ClientOptions(cfg, 0));
    for (uint64_t f = 0; f < kColdFiles; ++f) {
      Status s = AppendFile(table.get(), rows, spec, f * kColdRowsPerFile,
                            (f + 1) * kColdRowsPerFile, &files, &maint);
      const uint64_t n = f + 1;
      if (s.ok() && n % kColdIndexEvery == 0 && n <= kColdIndexedFiles) {
        s = IndexAll(&setup, kColdIndexEvery * kColdRowsPerFile, &maint);
      }
      if (s.ok() && n == kColdCompactAt) s = CompactAndVacuum(&setup, &maint);
      if (!s.ok()) {
        out->error = s.ToString();
        return 1;
      }
    }
  }
  const uint64_t write_bytes = store.Counts().bytes_written;

  Rottnest client(&store, table.get(), ClientOptions(cfg, kColdCacheBytes));
  client.metadata().AttachMetrics(&registry);
  rottnest::serve::ServeOptions sopts;
  sopts.max_concurrent = clients;
  sopts.batch_max = static_cast<size_t>(clients);
  QueryEngine engine(&client, sopts);
  const rottnest::workload::MultiTenantWorkload wl(
      ColdSpec(spec, clients));

  const SteadyTime oracle_t0 = std::chrono::steady_clock::now();
  Oracle oracle(&rows, &files);
  for (int c = 0; c < clients; ++c) {
    for (int r = 0; r < kColdOracleRequests; ++r) {
      oracle.Warm(wl.QueryFor(c, r));
    }
  }
  const double oracle_s = SecondsSince(oracle_t0);

  // Each client walks its own request sequence across phases.
  std::vector<int> next(clients, 0);
  auto phase = [&](bool traced, double seconds, int requests) {
    std::vector<QueryLedger> per(clients);
    const Counters c0 = Counters::Take(store, client, replay);
    const uint64_t waves0 = engine.stats().waves.load();
    const uint64_t wave_q0 = engine.stats().wave_queries.load();
    const SteadyTime t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const int stop = next[c] + requests;
        while (requests > 0 ? next[c] < stop : SecondsSince(t0) < seconds) {
          RunQuery(&client, &engine, wl.QueryFor(c, next[c]++), &oracle,
                   traced, &per[c]);
        }
      });
    }
    for (auto& t : threads) t.join();
    QueryLedger l;
    l.wall_s = SecondsSince(t0);
    for (const QueryLedger& p : per) l.Merge(p);
    l.counters = Counters::Take(store, client, replay) - c0;
    l.waves = engine.stats().waves.load() - waves0;
    l.wave_queries = engine.stats().wave_queries.load() - wave_q0;
    Judge(l, /*reconcile=*/true, out);
    return l;
  };

  const QueryLedger warm = phase(false, 0, kColdWarmRequests);
  (void)warm;
  const double setup_s = SecondsSince(cfg.start) - oracle_s;
  const QueryLedger timed = phase(false, PhaseSeconds(cfg), 0);
  auto index_bytes = LiveIndexBytes(&client);
  if (!index_bytes.ok()) {
    out->error = index_bytes.status().ToString();
    return 1;
  }
  out->attempted = timed.queries();
  out->failed = timed.failed;
  std::fprintf(stderr,
               "cold_lake: %llu queries, vector recall %.4f, cache holds "
               "%llu bytes of %llu\n",
               static_cast<unsigned long long>(timed.queries()),
               oracle.MeanRecall(),
               static_cast<unsigned long long>(client.cache()->ResidentBytes()),
               static_cast<unsigned long long>(kColdCacheBytes));
  timed.PrintKinds("cold_lake");
  if (!cfg.trace) {
    AppendEndToEnd(setup_s, maint, index_bytes.value(), timed, &out->metrics);
    return 0;
  }

  EnableSpans(true);
  const QueryLedger traced = phase(true, PhaseSeconds(cfg), 0);
  AppendPerLayer(maint, write_bytes, traced, &out->metrics);
  AppendServeMetrics(traced, &out->metrics);
  ProbeTarget target{&client, table.get(), &mem, {}};
  for (int r = 0; r < 64; ++r) target.sample.push_back(wl.QueryFor(0, r));
  VectorQueries(spec, cfg.seed, 4, &target.sample);
  Status s = ProbeLayers(target, &out->metrics);
  EnableSpans(false);
  engine.Shutdown();
  if (!s.ok()) {
    out->error = s.ToString();
    return 1;
  }
  out->attempted = traced.queries();
  out->failed = traced.failed;
  WriteTrace(cfg, timed, traced, out);
  return 0;
}

// ---------------------------------------------------------------------------
// ingest_search: one thread growing a fresh lake cycle by cycle — append,
// index, then queries that must find the rows just appended — with periodic
// compaction and vacuum, on a store with real per-request latency. Each
// round starts from an empty lake, so every run repeats whole rounds of
// identical work.

namespace {

constexpr uint64_t kIngestCycles = 12;
constexpr uint64_t kIngestRowsPerCycle = 128;
constexpr uint64_t kIngestCompactEvery = 4;
constexpr uint64_t kIngestCacheBytes = 64ull << 20;
constexpr rottnest::Micros kIngestLatencyMicros = 100;

std::vector<std::vector<Query>> IngestPlans(const DatasetSpec& spec,
                                            const Rows& rows, uint64_t seed) {
  Needles n(spec, seed, 16);
  rottnest::workload::VectorGenerator vectors(spec.seed, spec.vector_dim);
  Random rng(Mix64(seed ^ 0x696e67ull));
  std::vector<std::vector<Query>> plans(kIngestCycles);
  for (uint64_t c = 0; c < kIngestCycles; ++c) {
    std::vector<Query>& p = plans[c];
    const uint64_t live = (c + 1) * kIngestRowsPerCycle;
    // Every row appended this cycle must be found, exactly once.
    for (uint64_t i = c * kIngestRowsPerCycle; i < live; ++i) {
      p.push_back(Query::Uuid("uuid", rows.uuid[i], kK));
    }
    p.push_back(Query::Uuid("uuid", n.misses[c % n.misses.size()], kK));
    p.push_back(Query::Substring("body", n.patterns[rng.Uniform(16)], kK));
    p.push_back(Query::Substring("body", n.patterns[rng.Uniform(16)], kK));
    p.push_back(Keyword(n.terms[rng.Uniform(16)], n.terms[rng.Uniform(16)],
                        true));
    p.push_back(Keyword(n.terms[rng.Uniform(16)], n.terms[rng.Uniform(16)],
                        false));
    p.push_back(Query::Count("body", n.patterns[rng.Uniform(16)]));
    p.push_back(Query::Regex("body", n.terms[rng.Uniform(16)] + " [a-z]+", kK));
    p.push_back(Query::Vector("vec", vectors.QueryNear(rng.Uniform(live)), kK));
  }
  return plans;
}

rottnest::objectstore::FaultOptions IngestLatency(uint64_t seed) {
  rottnest::objectstore::FaultOptions fopts;
  fopts.seed = Mix64(seed);
  fopts.base_latency_micros = kIngestLatencyMicros;
  return fopts;
}

/// One round's lake: its own store (real latency on every request, no
/// faults), table and client.
struct IngestLake {
  explicit IngestLake(uint64_t seed) : slow(&mem, IngestLatency(seed)) {}
  SimulatedClock clock;
  InMemoryObjectStore mem{&clock};
  rottnest::objectstore::FaultInjectingStore slow;
  CountingStore store{&slow, kIndexDir};
  rottnest::obs::MetricsRegistry registry;
  std::unique_ptr<rottnest::lake::Table> table;
  std::unique_ptr<Rottnest> client;
};

/// Grows one fresh lake through every cycle.
Status RunIngestRound(const RunConfig& cfg, const DatasetSpec& spec,
                      const Rows& rows,
                      const std::vector<std::vector<Query>>& plans,
                      FileMap* files, Oracle* oracle, bool traced,
                      MaintenanceLedger* maint, QueryLedger* ledger,
                      std::unique_ptr<IngestLake>* keep) {
  auto lake = std::make_unique<IngestLake>(cfg.seed);
  const rottnest::obs::Counter* replay =
      lake->registry.GetCounter("meta.replay_gets");
  ROTTNEST_ASSIGN_OR_RETURN(
      lake->table,
      rottnest::lake::Table::Create(&lake->store, "lake/ingest",
                                    rottnest::workload::DatasetSchema(spec),
                                    BenchWriterOptions()));
  lake->table->AttachMetrics(&lake->registry);
  rottnest::core::RottnestOptions opts = ClientOptions(cfg, kIngestCacheBytes);
  opts.ivfpq.nlist = 8;  // A cycle's file holds only 128 vectors.
  lake->client = std::make_unique<Rottnest>(&lake->store, lake->table.get(),
                                            opts);
  lake->client->metadata().AttachMetrics(&lake->registry);

  for (uint64_t c = 0; c < kIngestCycles; ++c) {
    const uint64_t first = c * kIngestRowsPerCycle;
    const uint64_t live = first + kIngestRowsPerCycle;
    ROTTNEST_RETURN_NOT_OK(AppendFile(lake->table.get(), rows, spec, first,
                                      live, files, maint));
    ROTTNEST_RETURN_NOT_OK(
        IndexAll(lake->client.get(), kIngestRowsPerCycle, maint));
    oracle->set_live(live);
    for (const Query& q : plans[c]) {
      const Counters before =
          Counters::Take(lake->store, *lake->client, replay);
      RunQuery(lake->client.get(), nullptr, q, oracle, traced, ledger);
      ledger->counters +=
          Counters::Take(lake->store, *lake->client, replay) - before;
    }
    if ((c + 1) % kIngestCompactEvery == 0) {
      ROTTNEST_RETURN_NOT_OK(CompactAndVacuum(lake->client.get(), maint));
    }
  }
  *keep = std::move(lake);
  return Status::OK();
}

}  // namespace

int RunIngestSearch(const RunConfig& cfg, RunResult* out) {
  const DatasetSpec spec =
      Spec(cfg.seed, kIngestCycles * kIngestRowsPerCycle);
  const Rows rows = GenerateRows(spec);
  const auto plans = IngestPlans(spec, rows, cfg.seed);

  FileMap files;
  const SteadyTime oracle_t0 = std::chrono::steady_clock::now();
  Oracle oracle(&rows, &files);
  for (const auto& plan : plans) {
    for (const Query& q : plan) oracle.Warm(q);
  }
  const double oracle_s = SecondsSince(oracle_t0);

  struct Phase {
    MaintenanceLedger maint;
    QueryLedger queries;
    uint64_t index_bytes = 0;
    uint64_t write_bytes = 0;
    std::unique_ptr<IngestLake> last;
  };
  // Whole rounds until `seconds` have passed (at least `min_rounds`).
  auto phase = [&](bool traced, double seconds, int min_rounds,
                   Phase* p) -> Status {
    const SteadyTime t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < min_rounds || SecondsSince(t0) < seconds; ++r) {
      ROTTNEST_RETURN_NOT_OK(RunIngestRound(cfg, spec, rows, plans, &files,
                                            &oracle, traced, &p->maint,
                                            &p->queries, &p->last));
      ROTTNEST_ASSIGN_OR_RETURN(p->index_bytes,
                                LiveIndexBytes(p->last->client.get()));
      p->write_bytes += p->last->store.Counts().bytes_written;
    }
    p->queries.wall_s = SecondsSince(t0);
    Judge(p->queries, /*reconcile=*/true, out);
    return Status::OK();
  };

  Phase warm, timed, traced;
  Status s = phase(false, 0, 1, &warm);  // One untimed round.
  const double setup_s = SecondsSince(cfg.start) - oracle_s;
  if (s.ok()) s = phase(false, PhaseSeconds(cfg), 1, &timed);
  if (!s.ok()) {
    out->error = s.ToString();
    return 1;
  }
  const MaintenanceLedger& m = timed.maint;
  out->attempted = timed.queries.queries() + m.appends + m.index_calls +
                   m.compact_calls + m.vacuum_calls;
  out->failed = timed.queries.failed;
  std::fprintf(stderr, "ingest_search: %llu queries, vector recall %.4f\n",
               static_cast<unsigned long long>(timed.queries.queries()),
               oracle.MeanRecall());
  if (!cfg.trace) {
    AppendEndToEnd(setup_s, m, timed.index_bytes, timed.queries,
                   &out->metrics);
    return 0;
  }

  EnableSpans(true);
  s = phase(true, PhaseSeconds(cfg), 1, &traced);
  QueryLedger serve_pass;
  if (s.ok()) {
    AppendPerLayer(traced.maint, traced.write_bytes, traced.queries,
                   &out->metrics);
    ProbeTarget target{traced.last->client.get(), traced.last->table.get(),
                       &traced.last->mem, plans.back()};
    s = ProbeLayers(target, &out->metrics);
  }
  if (s.ok()) {
    s = ProbeServe(traced.last->client.get(), plans.back(), &oracle,
                   &out->metrics, &serve_pass);
  }
  EnableSpans(false);
  if (!s.ok()) {
    out->error = s.ToString();
    return 1;
  }
  Judge(serve_pass, false, out);
  const MaintenanceLedger& tm = traced.maint;
  out->attempted = traced.queries.queries() + serve_pass.queries() +
                   tm.appends + tm.index_calls + tm.compact_calls +
                   tm.vacuum_calls;
  out->failed = traced.queries.failed + serve_pass.failed;
  WriteTrace(cfg, timed.queries, traced.queries, out);
  return 0;
}

}  // namespace perfbench

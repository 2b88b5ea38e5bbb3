#include "probes.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/coding.h"
#include "compress/lz.h"
#include "format/page_table.h"
#include "format/reader.h"
#include "index/component_file.h"
#include "index/fm/fm_index.h"
#include "index/ivfpq/ivfpq_index.h"
#include "index/keyword/keyword_index.h"
#include "index/trie/trie_index.h"
#include "serve/query_engine.h"
#include "spans.h"

namespace perfbench {

using rottnest::Buffer;
using rottnest::Decoder;
using rottnest::Slice;
using rottnest::Status;
using rottnest::core::Query;
using rottnest::core::QueryKind;
using rottnest::format::PageId;
using rottnest::index::ComponentFileReader;
using rottnest::index::IndexType;

namespace {

// Each timed probe runs at least this long, so a figure rests on many calls.
constexpr double kProbeSeconds = 0.2;

/// Calls `fn(i)` round-robin over `n` needles until kProbeSeconds have
/// passed (at least one full pass) and returns the median call in µs.
double MedianCallMicros(size_t n, const std::function<Status(size_t)>& fn,
                        Status* status) {
  std::vector<double> us;
  const SteadyTime start = std::chrono::steady_clock::now();
  for (size_t i = 0; status->ok(); ++i) {
    if (i >= n && SecondsSince(start) >= kProbeSeconds) break;
    const SteadyTime t0 = std::chrono::steady_clock::now();
    *status = fn(i % n);
    us.push_back(SecondsSince(t0) * 1e6);
  }
  return Quantile(us, 0.5);
}

/// The committed index entry of `type` covering the most rows.
const rottnest::lake::IndexEntry* PickEntry(
    const std::vector<rottnest::lake::IndexEntry>& entries, IndexType type) {
  const rottnest::lake::IndexEntry* best = nullptr;
  for (const auto& e : entries) {
    if (e.index_type != rottnest::index::IndexTypeName(type)) continue;
    if (best == nullptr || e.rows > best->rows) best = &e;
  }
  return best;
}

rottnest::Result<std::unique_ptr<ComponentFileReader>> OpenIndex(
    const ProbeTarget& t,
    const std::vector<rottnest::lake::IndexEntry>& entries, IndexType type) {
  const rottnest::lake::IndexEntry* e = PickEntry(entries, type);
  if (e == nullptr) {
    return Status::NotFound(std::string("no committed ") +
                            rottnest::index::IndexTypeName(type) + " index");
  }
  return ComponentFileReader::Open(t.raw, e->index_path, nullptr);
}

}  // namespace

Status ProbeLayers(const ProbeTarget& t, std::vector<Metric>* out) {
  Status st;
  rottnest::ThreadPool* pool = t.client->pool();

  // Needles of each kind, from the workload's own queries.
  std::vector<rottnest::index::Key128> keys;
  std::vector<std::pair<std::vector<std::string>, bool>> term_sets;
  std::vector<std::string> patterns;
  std::vector<const std::vector<float>*> vectors;
  for (const Query& q : t.sample) {
    switch (q.kind) {
      case QueryKind::kUuid:
        keys.push_back(rottnest::index::KeyFromValue(Slice(q.needle)));
        break;
      case QueryKind::kKeyword: {
        std::vector<std::string> norm;
        for (const std::string& term : q.terms) {
          std::string n;
          if (rottnest::index::NormalizeTerm(Slice(term), &n)) {
            norm.push_back(n);
          }
        }
        term_sets.emplace_back(std::move(norm),
                               q.options.params.keyword.mode ==
                                   rottnest::core::KeywordMode::kAnd);
        break;
      }
      case QueryKind::kSubstring:
      case QueryKind::kCount:
        patterns.push_back(q.needle);
        break;
      case QueryKind::kVector:
        vectors.push_back(&q.vector);
        break;
      case QueryKind::kRegex:
        break;
    }
  }
  if (keys.empty() || term_sets.empty() || patterns.empty() ||
      vectors.empty()) {
    return Status::InvalidArgument("probe sample lacks a query kind");
  }

  double snapshot_ms = MedianCallMicros(
      20,
      [&](size_t) {
        ScopedSpan span("lake.GetSnapshot");
        return t.table->GetSnapshot().status();
      },
      &st) / 1e3;
  ROTTNEST_RETURN_NOT_OK(st);
  double metadata_ms = MedianCallMicros(
      20,
      [&](size_t) {
        ScopedSpan span("lake.ReadAll");
        return t.client->metadata().ReadAll().status();
      },
      &st) / 1e3;
  ROTTNEST_RETURN_NOT_OK(st);
  out->push_back({"lake.snapshot_ms", snapshot_ms, "ms"});
  out->push_back({"lake.metadata_read_ms", metadata_ms, "ms"});

  ROTTNEST_ASSIGN_OR_RETURN(auto entries, t.client->metadata().ReadAll());
  ROTTNEST_ASSIGN_OR_RETURN(auto trie, OpenIndex(t, entries, IndexType::kTrie));
  ROTTNEST_ASSIGN_OR_RETURN(auto kw, OpenIndex(t, entries, IndexType::kKeyword));
  ROTTNEST_ASSIGN_OR_RETURN(auto fm, OpenIndex(t, entries, IndexType::kFm));
  ROTTNEST_ASSIGN_OR_RETURN(auto ivf, OpenIndex(t, entries, IndexType::kIvfPq));

  std::vector<PageId> pages;
  double trie_us = MedianCallMicros(
      keys.size(),
      [&](size_t i) {
        ScopedSpan span("index.TrieQuery");
        pages.clear();
        return rottnest::index::TrieQuery(trie.get(), pool, nullptr, keys[i],
                                          &pages);
      },
      &st);
  ROTTNEST_RETURN_NOT_OK(st);
  double kw_us = MedianCallMicros(
      term_sets.size(),
      [&](size_t i) {
        ScopedSpan span("index.KeywordQueryMany");
        pages.clear();
        return rottnest::index::KeywordQueryMany(
            kw.get(), pool, nullptr, term_sets[i].first, term_sets[i].second,
            &pages);
      },
      &st);
  ROTTNEST_RETURN_NOT_OK(st);
  // The engine locates 4k + 16 occurrences per substring query (k = 4).
  constexpr size_t kLocations = 32;
  std::set<PageId> probed;
  double fm_us = MedianCallMicros(
      patterns.size(),
      [&](size_t i) {
        ScopedSpan span("index.FmLocatePages");
        pages.clear();
        Status s = rottnest::index::FmLocatePages(
            fm.get(), pool, nullptr, Slice(patterns[i]), kLocations, &pages);
        probed.insert(pages.begin(), pages.end());
        return s;
      },
      &st);
  ROTTNEST_RETURN_NOT_OK(st);
  const auto& iv = t.client->options().ivfpq;
  std::vector<rottnest::index::VectorCandidate> cands;
  double ivf_us = MedianCallMicros(
      vectors.size(),
      [&](size_t i) {
        ScopedSpan span("index.IvfPqSearch");
        cands.clear();
        const std::vector<float>& v = *vectors[i];
        return rottnest::index::IvfPqSearch(
            ivf.get(), pool, nullptr, v.data(), static_cast<uint32_t>(v.size()),
            iv.default_nprobe, iv.default_refine, &cands);
      },
      &st);
  ROTTNEST_RETURN_NOT_OK(st);
  out->push_back({"index.trie_query_us", trie_us, "us"});
  out->push_back({"index.keyword_query_us", kw_us, "us"});
  out->push_back({"index.fm_locate_us", fm_us, "us"});
  out->push_back({"index.ivfpq_search_us", ivf_us, "us"});

  // The body pages the substring queries probe, read page-granularly.
  rottnest::format::PageTable table;
  ROTTNEST_RETURN_NOT_OK(
      rottnest::index::LoadPageTable(fm.get(), pool, nullptr, &table));
  if (probed.empty()) {
    for (PageId id = 0; id < std::min<size_t>(8, table.num_pages()); ++id) {
      probed.insert(id);
    }
  }
  std::vector<rottnest::format::PageFetch> fetches;
  for (PageId id : probed) fetches.push_back(table.MakeFetch(id));
  const rottnest::format::ColumnSchema* body = nullptr;
  for (const auto& c : t.table->schema().columns) {
    if (c.name == "body") body = &c;
  }
  if (body == nullptr) return Status::NotFound("no body column");
  std::vector<rottnest::format::ColumnVector> decoded;
  double read_us = MedianCallMicros(
      1,
      [&](size_t) {
        ScopedSpan span("format.ReadPages");
        decoded.clear();
        return rottnest::format::ReadPages(t.raw, fetches, *body, pool,
                                           nullptr, &decoded);
      },
      &st);
  ROTTNEST_RETURN_NOT_OK(st);
  out->push_back({"format.read_pages_us_per_page",
                  read_us / static_cast<double>(fetches.size()), "us"});

  // The LZ payloads of those pages (layout in format/page.h).
  struct Payload {
    Buffer bytes;
    uint64_t raw_size;
  };
  std::vector<Payload> payloads;
  uint64_t raw_total = 0;
  for (const auto& f : fetches) {
    Buffer page;
    ROTTNEST_RETURN_NOT_OK(
        t.raw->GetRange(f.key, f.page.offset, f.page.size, &page));
    Decoder dec{Slice(page)};
    uint64_t values = 0, raw_size = 0, comp_size = 0, checksum = 0;
    Slice codec, payload;
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&values));
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&raw_size));
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&comp_size));
    ROTTNEST_RETURN_NOT_OK(dec.GetBytes(1, &codec));
    ROTTNEST_RETURN_NOT_OK(dec.GetFixed64(&checksum));
    ROTTNEST_RETURN_NOT_OK(dec.GetBytes(comp_size, &payload));
    if (codec.data()[0] != static_cast<uint8_t>(rottnest::compress::Codec::kLz)) {
      continue;
    }
    payloads.push_back({payload.ToBuffer(), raw_size});
    raw_total += raw_size;
  }
  if (payloads.empty()) return Status::NotFound("no LZ-coded probed page");
  Buffer scratch;
  double lz_us = MedianCallMicros(
      1,
      [&](size_t) {
        ScopedSpan span("compress.LzDecompress");
        for (const Payload& p : payloads) {
          scratch.clear();
          ROTTNEST_RETURN_NOT_OK(rottnest::compress::LzDecompress(
              Slice(p.bytes), p.raw_size, &scratch));
        }
        return Status::OK();
      },
      &st);
  ROTTNEST_RETURN_NOT_OK(st);
  out->push_back({"compress.lz_decode_mb_per_s",
                  static_cast<double>(raw_total) / lz_us, "MB/s"});
  return Status::OK();
}

void AppendServeMetrics(const QueryLedger& ledger, std::vector<Metric>* out) {
  const double q = static_cast<double>(std::max<uint64_t>(ledger.queries(), 1));
  out->push_back({"serve.queries_per_wave",
                  ledger.waves == 0 ? 0.0
                                    : static_cast<double>(ledger.wave_queries) /
                                          static_cast<double>(ledger.waves),
                  "queries"});
  out->push_back(
      {"serve.shared_gets_per_query",
       static_cast<double>(ledger.counters.cache_wave_hits +
                           ledger.counters.cache_coalesced) /
           q,
       "requests"});
  out->push_back(
      {"serve.wait_ms_p50", Quantile(ledger.serve_wait_ms, 0.5), "ms"});
}

Status ProbeServe(rottnest::core::Rottnest* client,
                  const std::vector<Query>& sample, Oracle* oracle,
                  std::vector<Metric>* out, QueryLedger* ledger) {
  rottnest::serve::ServeOptions sopts;
  sopts.max_concurrent = 1;
  sopts.batch_max = 1;
  rottnest::serve::QueryEngine engine(client, sopts);
  QueryLedger local;
  const auto before_cache = client->cache()->stats().cache_wave_hits.load() +
                            client->cache()->stats().cache_coalesced.load();
  for (const Query& q : sample) {
    RunQuery(client, &engine, q, oracle, /*traced=*/true, &local);
  }
  engine.Shutdown();
  local.waves = engine.stats().waves.load();
  local.wave_queries = engine.stats().wave_queries.load();
  local.counters.cache_wave_hits =
      client->cache()->stats().cache_wave_hits.load() +
      client->cache()->stats().cache_coalesced.load() - before_cache;
  AppendServeMetrics(local, out);
  *ledger = std::move(local);
  return Status::OK();
}

}  // namespace perfbench

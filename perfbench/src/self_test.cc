// Self-test of the answer checks: on a small lake, every genuine response
// must pass, and each check must reject a response made wrong on purpose —
// a missing, duplicated, foreign or altered row, a wrong count, a wrong
// vector distance, and an unreconciled request count.
#include <cstdio>
#include <memory>

#include "bench.h"
#include "common/random.h"
#include "dataset.h"

namespace perfbench {

using rottnest::core::Query;
using rottnest::core::QueryKind;
using rottnest::core::QueryResponse;
using rottnest::core::RowMatch;

namespace {

constexpr uint64_t kFiles = 4;
constexpr uint64_t kRowsPerFile = 150;
constexpr size_t kK = 4;

struct SelfTest {
  Rows rows;
  FileMap files;
  int failures = 0;

  void Expect(const std::string& what, bool ok) {
    std::fprintf(stderr, "  %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  }

  /// Points `m` at row `ord`, carrying that row's value of `column`.
  void Retarget(RowMatch* m, uint64_t ord, const std::string& column) {
    files.Locate(ord, &m->file, &m->row);
    m->value = column == "uuid" ? rows.uuid[ord] : rows.body[ord];
  }

  /// A row no answer of `q` may contain.
  uint64_t ForeignRow(const Query& q) {
    for (uint64_t i = 0; i < rows.size(); ++i) {
      const std::string& b = rows.body[i];
      switch (q.kind) {
        case QueryKind::kUuid:
          if (rows.uuid[i] != q.needle) return i;
          break;
        case QueryKind::kKeyword: {
          bool any = false;
          for (const std::string& t : Oracle::Tokens(b)) {
            for (const std::string& term : q.terms) any |= t == term;
          }
          if (!any) return i;
          break;
        }
        default: {
          const std::string lit = q.needle.substr(0, q.needle.find(' ') + 1);
          if (b.find(lit) == std::string::npos) return i;
          break;
        }
      }
    }
    return 0;
  }

  /// Runs `q`, shows the genuine answer passes, then breaks it every way
  /// the checks must catch.
  void Cases(rottnest::core::Rottnest* client, Oracle* oracle, const Query& q,
             const std::string& name) {
    auto r = client->Execute(q);
    if (!r.ok()) {
      Expect(name + ": query runs (" + r.status().ToString() + ")", false);
      return;
    }
    const QueryResponse good = r.value();
    Expect(name + ": genuine answer passes", oracle->Check(q, good).empty());
    auto caught = [&](const std::string& how, QueryResponse bad) {
      Expect(name + ": " + how + " is caught",
             !oracle->Check(q, bad).empty());
    };
    if (q.kind == QueryKind::kCount) {
      QueryResponse bad = good;
      bad.count += 1;
      caught("count off by one", bad);
      return;
    }
    const auto& matches = good.result.matches;
    if (matches.empty()) {
      // An empty answer: any returned row is wrong.
      QueryResponse bad = good;
      RowMatch m;
      Retarget(&m, 0, q.column);
      bad.result.matches.push_back(m);
      caught("row returned for a miss", bad);
      return;
    }
    QueryResponse bad = good;
    bad.result.matches.pop_back();
    caught("missing row", bad);
    bad = good;
    bad.result.matches.push_back(matches.front());
    caught("duplicated row", bad);
    bad = good;
    bad.result.matches.front().value += "x";
    caught("altered value", bad);
    if (q.kind == QueryKind::kVector) {
      bad = good;
      bad.result.matches.front().distance *= 1.01f;
      bad.result.matches.front().distance += 0.01f;
      caught("wrong distance", bad);
    } else {
      bad = good;
      Retarget(&bad.result.matches.front(), ForeignRow(q), q.column);
      caught("non-matching row", bad);
    }
  }
};

}  // namespace

int RunSelfTest() {
  std::fprintf(stderr, "perfbench self-test: oracle checks\n");
  SelfTest t;
  rottnest::workload::DatasetSpec spec;
  spec.total_rows = kFiles * kRowsPerFile;
  spec.seed = 7;
  spec.doc_chars = 160;
  spec.vector_dim = 16;
  t.rows = GenerateRows(spec);

  rottnest::SimulatedClock clock;
  rottnest::objectstore::InMemoryObjectStore mem(&clock);
  CountingStore store(&mem, "idx");
  auto table = rottnest::lake::Table::Create(
      &store, "lake/selftest", rottnest::workload::DatasetSchema(spec),
      BenchWriterOptions());
  if (!table.ok()) return 1;
  rottnest::core::RottnestOptions opts;
  opts.index_dir = "idx";
  opts.ivfpq.nlist = 8;
  opts.ivfpq.num_subquantizers = 4;
  opts.num_threads = 2;
  opts.cache_bytes = 16 << 20;
  rottnest::core::Rottnest client(&store, table.value().get(), opts);
  MaintenanceLedger m;
  for (uint64_t f = 0; f < kFiles; ++f) {
    rottnest::Status s =
        AppendFile(table.value().get(), t.rows, spec, f * kRowsPerFile,
                   (f + 1) * kRowsPerFile, &t.files, &m);
    if (!s.ok()) return 1;
  }
  if (!IndexAll(&client, spec.total_rows, &m).ok()) return 1;
  Oracle oracle(&t.rows, &t.files);

  rottnest::workload::TextGenerator text(spec.seed);
  const std::string term = text.SamplePattern(1);
  const std::string term2 = text.SamplePattern(1);
  const std::string pattern = text.Word(9) + " " + text.Word(3);
  rottnest::workload::VectorGenerator vectors(spec.seed, spec.vector_dim);
  rottnest::workload::UuidGenerator ids(spec.seed, spec.uuid_bytes);

  t.Cases(&client, &oracle, Query::Uuid("uuid", t.rows.uuid[17], kK),
          "uuid hit");
  t.Cases(&client, &oracle,
          Query::Uuid("uuid", ids.IdFor(spec.total_rows + 5), kK),
          "uuid miss");
  t.Cases(&client, &oracle, Query::Substring("body", text.Word(2), kK),
          "substring");
  t.Cases(&client, &oracle, Query::Regex("body", term + " [a-z]+", kK),
          "regex");
  t.Cases(&client, &oracle,
          Query::MakeKeyword("body", {term, term2},
                             rottnest::core::KeywordMode::kOr, kK),
          "keyword OR");
  t.Cases(&client, &oracle,
          Query::MakeKeyword("body", {text.Word(1), text.Word(2)},
                             rottnest::core::KeywordMode::kAnd, kK),
          "keyword AND");
  t.Cases(&client, &oracle, Query::Count("body", pattern), "count");
  t.Cases(&client, &oracle, Query::Vector("vec", vectors.QueryNear(33), kK),
          "vector");

  Counters c;
  c.io.requests[kMeta] = 10;
  c.io.requests[kIndex] = 4;
  c.cache_misses = 4;
  t.Expect("reconciliation: matching totals pass", Reconcile(c).empty());
  c.io.requests[kData] = 1;
  t.Expect("reconciliation: an uncounted request is caught",
           !Reconcile(c).empty());

  std::fprintf(stderr, "self-test %s (%d failure%s)\n",
               t.failures == 0 ? "passed" : "FAILED", t.failures,
               t.failures == 1 ? "" : "s");
  return t.failures == 0 ? 0 : 1;
}

}  // namespace perfbench

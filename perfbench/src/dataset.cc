#include "dataset.h"

#include <chrono>

#include "spans.h"

namespace perfbench {

using rottnest::Result;
using rottnest::Slice;
using rottnest::Status;
using rottnest::index::IndexType;
namespace format = rottnest::format;
namespace workload = rottnest::workload;

const IndexKind kIndexKinds[4] = {
    {"uuid", IndexType::kTrie},
    {"body", IndexType::kFm},
    {"body", IndexType::kKeyword},
    {"vec", IndexType::kIvfPq},
};

namespace {

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Rows GenerateRows(const workload::DatasetSpec& spec) {
  Rows rows;
  rows.dim = spec.vector_dim;
  workload::TextGenerator text(spec.seed);
  workload::UuidGenerator uuids(spec.seed, spec.uuid_bytes);
  workload::VectorGenerator vectors(spec.seed, spec.vector_dim);
  rows.uuid.reserve(spec.total_rows);
  rows.body.reserve(spec.total_rows);
  rows.vec.reserve(spec.total_rows * spec.vector_dim);
  for (uint64_t i = 0; i < spec.total_rows; ++i) {
    rows.uuid.push_back(uuids.IdFor(i));
    rows.body.push_back(text.Document(spec.doc_chars));
    std::vector<float> v = vectors.VectorFor(i);
    rows.vec.insert(rows.vec.end(), v.begin(), v.end());
  }
  return rows;
}

bool FileMap::Resolve(const std::string& path, uint64_t row,
                      uint64_t* ordinal) const {
  auto it = files_.find(path);
  if (it == files_.end() || row >= it->second.second) return false;
  *ordinal = it->second.first + row;
  return true;
}

bool FileMap::Locate(uint64_t ordinal, std::string* path,
                     uint64_t* row) const {
  for (const auto& [p, range] : files_) {
    if (ordinal >= range.first && ordinal < range.first + range.second) {
      *path = p;
      *row = ordinal - range.first;
      return true;
    }
  }
  return false;
}

format::WriterOptions BenchWriterOptions() {
  format::WriterOptions w;
  w.target_page_bytes = 16 << 10;
  return w;
}

Status AppendFile(rottnest::lake::Table* table, const Rows& rows,
                  const workload::DatasetSpec& spec, uint64_t begin,
                  uint64_t end, FileMap* files, MaintenanceLedger* ledger) {
  format::RowBatch batch;
  batch.schema = workload::DatasetSchema(spec);
  format::ColumnVector::Ints ts;
  format::FlatFixed ids;
  ids.elem_size = static_cast<uint32_t>(spec.uuid_bytes);
  format::ColumnVector::Strings bodies;
  format::FlatFixed vecs;
  vecs.elem_size = spec.vector_dim * 4;
  for (uint64_t i = begin; i < end; ++i) {
    ts.push_back(static_cast<int64_t>(1'700'000'000 + i));
    ids.Append(Slice(rows.uuid[i]));
    bodies.push_back(rows.body[i]);
    vecs.Append(Slice(reinterpret_cast<const uint8_t*>(rows.Vec(i)),
                      static_cast<size_t>(rows.dim) * 4));
  }
  batch.columns.emplace_back(std::move(ts));
  batch.columns.emplace_back(std::move(ids));
  batch.columns.emplace_back(std::move(bodies));
  batch.columns.emplace_back(std::move(vecs));

  const auto t0 = std::chrono::steady_clock::now();
  Result<rottnest::lake::Version> version = [&] {
    ScopedSpan span("lake.Append");
    return table->Append(batch);
  }();
  ledger->append_s += Since(t0);
  ledger->appends += 1;
  ledger->rows_appended += end - begin;
  if (!version.ok()) return version.status();

  // The committed entry names the new data file.
  std::vector<rottnest::Json> actions;
  ROTTNEST_RETURN_NOT_OK(table->log().ReadVersion(version.value(), &actions));
  for (const rottnest::Json& a : actions) {
    rottnest::Json add;
    std::string path;
    if (a.Get("add", &add) && add.GetString("path", &path).ok()) {
      files->Add(path, begin, end - begin);
      return Status::OK();
    }
  }
  return Status::Corruption("appended version has no add action");
}

Status IndexAll(rottnest::core::Rottnest* client, uint64_t new_rows,
                MaintenanceLedger* ledger) {
  for (const IndexKind& kind : kIndexKinds) {
    const auto t0 = std::chrono::steady_clock::now();
    Status s = [&] {
      ScopedSpan span("core.Index");
      return client->Index(kind.column, kind.type).status();
    }();
    ledger->index_s += Since(t0);
    ledger->index_calls += 1;
    ROTTNEST_RETURN_NOT_OK(s);
  }
  ledger->rows_indexed += new_rows;
  return Status::OK();
}

Status CompactAndVacuum(rottnest::core::Rottnest* client,
                        MaintenanceLedger* ledger) {
  for (const IndexKind& kind : kIndexKinds) {
    const auto t0 = std::chrono::steady_clock::now();
    Status s = [&] {
      ScopedSpan span("core.Compact");
      return client->Compact(kind.column, kind.type).status();
    }();
    ledger->compact_s += Since(t0);
    ledger->compact_calls += 1;
    ROTTNEST_RETURN_NOT_OK(s);
  }
  ROTTNEST_ASSIGN_OR_RETURN(rottnest::lake::Version latest,
                            client->table()->log().LatestVersion());
  const auto t0 = std::chrono::steady_clock::now();
  Status s = [&] {
    ScopedSpan span("core.Vacuum");
    return client->Vacuum(latest).status();
  }();
  ledger->vacuum_s += Since(t0);
  ledger->vacuum_calls += 1;
  return s;
}

Result<uint64_t> LiveIndexBytes(rottnest::core::Rottnest* client) {
  ROTTNEST_ASSIGN_OR_RETURN(auto described, client->DescribeIndexes());
  uint64_t bytes = 0;
  for (const auto& d : described) {
    if (d.covers_live_files) bytes += d.bytes;
  }
  return bytes;
}

}  // namespace perfbench

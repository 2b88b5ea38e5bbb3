// The benchmark's own copy of the generated rows, and the lake built from
// them. Rows are generated exactly as workload::BuildDataset generates them
// (same generators, same order), so row i carries uuid IdFor(i) — the
// identity workload::MultiTenantWorkload targets — but the benchmark keeps
// every value itself, which is what the oracle answers from.
#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/rottnest.h"
#include "format/types.h"
#include "lake/table.h"
#include "workload/generators.h"

namespace perfbench {

/// Generated columns, indexed by global row ordinal.
struct Rows {
  std::vector<std::string> uuid;
  std::vector<std::string> body;
  std::vector<float> vec;  ///< Row-major, `dim` floats per row.
  uint32_t dim = 0;

  uint64_t size() const { return uuid.size(); }
  const float* Vec(uint64_t i) const { return vec.data() + i * dim; }
};

/// Generates `spec.total_rows` rows the way workload::BuildDataset does.
Rows GenerateRows(const rottnest::workload::DatasetSpec& spec);

/// Where each data file's rows sit among the global ordinals.
class FileMap {
 public:
  void Add(const std::string& path, uint64_t first_row, uint64_t rows) {
    files_[path] = {first_row, rows};
  }
  /// Maps (data file, file-global row) to the global ordinal.
  bool Resolve(const std::string& path, uint64_t row, uint64_t* ordinal) const;
  /// The inverse: which file and row hold global ordinal `ordinal`.
  bool Locate(uint64_t ordinal, std::string* path, uint64_t* row) const;

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> files_;
};

/// The four indexes every workload builds.
struct IndexKind {
  const char* column;
  rottnest::index::IndexType type;
};
extern const IndexKind kIndexKinds[4];

/// Wall time and counts of the maintenance calls a workload made.
struct MaintenanceLedger {
  double append_s = 0, index_s = 0, compact_s = 0, vacuum_s = 0;
  uint64_t appends = 0, index_calls = 0, compact_calls = 0, vacuum_calls = 0;
  uint64_t rows_appended = 0;
  uint64_t rows_indexed = 0;  ///< Rows newly covered, counted once per row.

  double maintenance_s() const { return index_s + compact_s + vacuum_s; }
};

/// Appends rows [begin, end) as one data file (one commit) and records its
/// path, read back from the committed log entry.
rottnest::Status AppendFile(rottnest::lake::Table* table, const Rows& rows,
                            const rottnest::workload::DatasetSpec& spec,
                            uint64_t begin, uint64_t end, FileMap* files,
                            MaintenanceLedger* ledger);

/// Runs Index for every kind of kIndexKinds. `new_rows` is the number of
/// rows this call makes searchable.
rottnest::Status IndexAll(rottnest::core::Rottnest* client, uint64_t new_rows,
                          MaintenanceLedger* ledger);

/// Compacts every kind, then vacuums against the latest version.
rottnest::Status CompactAndVacuum(rottnest::core::Rottnest* client,
                                  MaintenanceLedger* ledger);

/// Bytes of the committed index objects that cover live files.
rottnest::Result<uint64_t> LiveIndexBytes(rottnest::core::Rottnest* client);

/// The writer layout every workload uses: 16 KiB pages, so a probe reads
/// a page rather than a whole column chunk and a posting list narrows the
/// pages to read.
rottnest::format::WriterOptions BenchWriterOptions();

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_

// The answer checker: every response the program gives is compared with an
// answer computed here from the benchmark's own copy of the rows, without
// any index — brute std::string::find for substring and count, std::regex
// for regex, an own lowercase-alphanumeric tokenizer for keyword, an exact
// scan for vector top-k, and the generator identity for UUIDs.
//
// Only rows [0, live) are in the lake (ingest grows `live` as it appends);
// expected sets are memoized over all generated rows and cut to `live` at
// check time. Thread-safe.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "dataset.h"

namespace perfbench {

class Oracle {
 public:
  /// `rows` and `files` must outlive the oracle.
  Oracle(const Rows* rows, const FileMap* files);

  void set_live(uint64_t live) { live_ = live; }

  /// Computes (and memoizes) the expected answer of `q` ahead of timing.
  void Warm(const rottnest::core::Query& q);

  /// Checks one response. Returns an empty string when it is correct, else
  /// what is wrong.
  std::string Check(const rottnest::core::Query& q,
                    const rottnest::core::QueryResponse& r);

  /// Mean recall@k of the vector responses checked so far (1 when none).
  double MeanRecall() const;
  uint64_t vector_checks() const;

  /// The oracle's own tokenizer: maximal runs of ASCII letters and digits,
  /// lowercased.
  static std::vector<std::string> Tokens(const std::string& text);

 private:
  struct CountRows {
    std::vector<uint64_t> rows;     ///< Rows with at least one occurrence.
    std::vector<uint64_t> counts;   ///< Occurrences, aligned with rows.
  };

  // Memoized expectations over ALL generated rows (callers hold mu_).
  const CountRows& SubstringLocked(const std::string& pattern);
  const std::vector<uint64_t>& RegexLocked(const std::string& pattern);
  std::vector<uint64_t> KeywordLocked(const std::vector<std::string>& terms,
                                      bool require_all);
  std::vector<uint64_t> TopKLocked(const std::vector<float>& query, size_t k,
                                   uint64_t live);
  void BuildTokensLocked();

  /// Checks a row-set answer: rows resolve, are distinct, lie in
  /// `expected`, carry the row's value, and number min(k, |expected|).
  std::string CheckRows(const rottnest::core::SearchResult& r, size_t k,
                        const std::vector<uint64_t>& expected,
                        const std::vector<std::string>& values) const;

  const Rows* rows_;
  const FileMap* files_;
  uint64_t live_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, uint64_t> uuid_row_;
  std::map<std::string, CountRows> substring_;
  std::map<std::string, std::vector<uint64_t>> regex_;
  bool tokens_built_ = false;
  std::unordered_map<std::string, std::vector<uint64_t>> postings_;
  std::map<std::string, std::vector<uint64_t>> topk_;  ///< By query+k+live.
  double recall_sum_ = 0;
  uint64_t recall_n_ = 0;
};

/// Exact squared L2 distance, computed in double.
double SquaredL2(const float* a, const float* b, uint32_t dim);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_

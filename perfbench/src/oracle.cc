#include "oracle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <regex>
#include <set>

namespace perfbench {

using rottnest::core::Query;
using rottnest::core::QueryKind;
using rottnest::core::QueryResponse;
using rottnest::core::SearchResult;

namespace {

bool IsLiteral(const std::string& pattern) {
  return pattern.find_first_of("\\^$.|?*+()[]{}") == std::string::npos;
}

std::vector<uint64_t> Below(const std::vector<uint64_t>& sorted,
                            uint64_t live) {
  return std::vector<uint64_t>(
      sorted.begin(), std::lower_bound(sorted.begin(), sorted.end(), live));
}

std::string Describe(const Query& q) {
  std::string s = rottnest::core::QueryKindName(q.kind);
  s += " on '" + q.column + "'";
  if (q.kind == QueryKind::kKeyword) {
    for (const auto& t : q.terms) s += " [" + t + "]";
  } else if (q.kind != QueryKind::kVector && q.kind != QueryKind::kUuid) {
    s += " '" + q.needle + "'";
  }
  return s;
}

}  // namespace

double SquaredL2(const float* a, const float* b, uint32_t dim) {
  double sum = 0;
  for (uint32_t d = 0; d < dim; ++d) {
    const double diff = static_cast<double>(a[d]) - b[d];
    sum += diff * diff;
  }
  return sum;
}

Oracle::Oracle(const Rows* rows, const FileMap* files)
    : rows_(rows), files_(files), live_(rows->size()) {
  uuid_row_.reserve(rows->size());
  for (uint64_t i = 0; i < rows->size(); ++i) uuid_row_[rows->uuid[i]] = i;
}

std::vector<std::string> Oracle::Tokens(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : text) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c < 128 && std::isalnum(c)) {
      cur.push_back(static_cast<char>(std::tolower(c)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

const Oracle::CountRows& Oracle::SubstringLocked(const std::string& pattern) {
  auto it = substring_.find(pattern);
  if (it != substring_.end()) return it->second;
  CountRows cr;
  for (uint64_t i = 0; i < rows_->size(); ++i) {
    const std::string& v = rows_->body[i];
    uint64_t n = 0;
    for (size_t pos = v.find(pattern); pos != std::string::npos;
         pos = v.find(pattern, pos + 1)) {
      ++n;
    }
    if (n > 0) {
      cr.rows.push_back(i);
      cr.counts.push_back(n);
    }
  }
  return substring_.emplace(pattern, std::move(cr)).first->second;
}

const std::vector<uint64_t>& Oracle::RegexLocked(const std::string& pattern) {
  auto it = regex_.find(pattern);
  if (it != regex_.end()) return it->second;
  const std::regex re(pattern, std::regex::ECMAScript);
  std::vector<uint64_t> out;
  if (IsLiteral(pattern)) {
    // A literal pattern can only match rows containing it: confirm those.
    for (uint64_t i : SubstringLocked(pattern).rows) {
      if (std::regex_search(rows_->body[i], re)) out.push_back(i);
    }
  } else {
    for (uint64_t i = 0; i < rows_->size(); ++i) {
      if (std::regex_search(rows_->body[i], re)) out.push_back(i);
    }
  }
  return regex_.emplace(pattern, std::move(out)).first->second;
}

void Oracle::BuildTokensLocked() {
  if (tokens_built_) return;
  for (uint64_t i = 0; i < rows_->size(); ++i) {
    for (std::string& t : Tokens(rows_->body[i])) {
      std::vector<uint64_t>& p = postings_[std::move(t)];
      if (p.empty() || p.back() != i) p.push_back(i);
    }
  }
  tokens_built_ = true;
}

std::vector<uint64_t> Oracle::KeywordLocked(
    const std::vector<std::string>& terms, bool require_all) {
  BuildTokensLocked();
  std::vector<uint64_t> acc;
  bool first = true;
  for (const std::string& term : terms) {
    std::vector<std::string> toks = Tokens(term);
    if (toks.size() != 1) return {};
    auto it = postings_.find(toks[0]);
    static const std::vector<uint64_t> kEmpty;
    const std::vector<uint64_t>& p = it == postings_.end() ? kEmpty : it->second;
    std::vector<uint64_t> next;
    if (first) {
      next = p;
    } else if (require_all) {
      std::set_intersection(acc.begin(), acc.end(), p.begin(), p.end(),
                            std::back_inserter(next));
    } else {
      std::set_union(acc.begin(), acc.end(), p.begin(), p.end(),
                     std::back_inserter(next));
    }
    acc = std::move(next);
    first = false;
  }
  return acc;
}

std::vector<uint64_t> Oracle::TopKLocked(const std::vector<float>& query,
                                         size_t k, uint64_t live) {
  std::string key(reinterpret_cast<const char*>(query.data()),
                  query.size() * sizeof(float));
  key += "|" + std::to_string(k) + "|" + std::to_string(live);
  auto it = topk_.find(key);
  if (it != topk_.end()) return it->second;
  std::vector<std::pair<double, uint64_t>> all;
  all.reserve(live);
  for (uint64_t i = 0; i < live; ++i) {
    all.emplace_back(SquaredL2(query.data(), rows_->Vec(i), rows_->dim), i);
  }
  const size_t n = std::min<size_t>(k, all.size());
  std::partial_sort(all.begin(), all.begin() + n, all.end());
  std::vector<uint64_t> top;
  for (size_t i = 0; i < n; ++i) top.push_back(all[i].second);
  return topk_.emplace(key, std::move(top)).first->second;
}

void Oracle::Warm(const Query& q) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (q.kind) {
    case QueryKind::kSubstring:
    case QueryKind::kCount:
      SubstringLocked(q.needle);
      break;
    case QueryKind::kRegex:
      RegexLocked(q.needle);
      break;
    case QueryKind::kKeyword:
      BuildTokensLocked();
      break;
    case QueryKind::kVector:
      TopKLocked(q.vector, q.k, live_);
      break;
    case QueryKind::kUuid:
      break;
  }
}

std::string Oracle::CheckRows(const SearchResult& r, size_t k,
                              const std::vector<uint64_t>& expected,
                              const std::vector<std::string>& values) const {
  std::set<uint64_t> seen;
  for (const auto& m : r.matches) {
    uint64_t ord = 0;
    if (!files_->Resolve(m.file, m.row, &ord) || ord >= live_) {
      return "match names no live row: " + m.file + "#" +
             std::to_string(m.row);
    }
    if (!seen.insert(ord).second) {
      return "row " + std::to_string(ord) + " returned twice";
    }
    if (!std::binary_search(expected.begin(), expected.end(), ord)) {
      return "row " + std::to_string(ord) + " does not match";
    }
    if (m.value != values[ord]) {
      return "row " + std::to_string(ord) + " carries a wrong value";
    }
  }
  const size_t want = std::min(k, expected.size());
  if (r.matches.size() != want) {
    return "returned " + std::to_string(r.matches.size()) + " rows, expected " +
           std::to_string(want) + " (of " + std::to_string(expected.size()) +
           " matching)";
  }
  return "";
}

std::string Oracle::Check(const Query& q, const QueryResponse& resp) {
  if (resp.kind != q.kind) return Describe(q) + ": response of another kind";
  const SearchResult& r = resp.result;
  if (r.partial) return Describe(q) + ": partial result (" + r.partial_reason + ")";
  if (r.indexes_degraded != 0) return Describe(q) + ": degraded index";
  const uint64_t live = live_;
  std::string err;
  std::lock_guard<std::mutex> lock(mu_);
  switch (q.kind) {
    case QueryKind::kUuid: {
      std::vector<uint64_t> expected;
      auto it = uuid_row_.find(q.needle);
      if (it != uuid_row_.end() && it->second < live) {
        expected.push_back(it->second);
      }
      err = CheckRows(r, q.k, expected, rows_->uuid);
      break;
    }
    case QueryKind::kSubstring:
      err = CheckRows(r, q.k, Below(SubstringLocked(q.needle).rows, live),
                      rows_->body);
      break;
    case QueryKind::kRegex:
      err = CheckRows(r, q.k, Below(RegexLocked(q.needle), live), rows_->body);
      break;
    case QueryKind::kKeyword: {
      const bool all =
          q.options.params.keyword.mode == rottnest::core::KeywordMode::kAnd;
      err = CheckRows(r, q.k, Below(KeywordLocked(q.terms, all), live),
                      rows_->body);
      break;
    }
    case QueryKind::kCount: {
      const CountRows& cr = SubstringLocked(q.needle);
      uint64_t want = 0;
      for (size_t i = 0; i < cr.rows.size() && cr.rows[i] < live; ++i) {
        want += cr.counts[i];
      }
      if (resp.count != want) {
        err = "count " + std::to_string(resp.count) + ", expected " +
              std::to_string(want);
      }
      break;
    }
    case QueryKind::kVector: {
      const std::vector<uint64_t> top = TopKLocked(q.vector, q.k, live);
      const size_t want = std::min<uint64_t>(q.k, live);
      if (r.matches.size() != want) {
        err = "returned " + std::to_string(r.matches.size()) +
              " neighbours, expected " + std::to_string(want);
        break;
      }
      std::set<uint64_t> seen;
      size_t hits = 0;
      float prev = -1;
      for (const auto& m : r.matches) {
        uint64_t ord = 0;
        if (!files_->Resolve(m.file, m.row, &ord) || ord >= live) {
          err = "neighbour names no live row";
          break;
        }
        if (!seen.insert(ord).second) {
          err = "row " + std::to_string(ord) + " returned twice";
          break;
        }
        const size_t bytes = static_cast<size_t>(rows_->dim) * sizeof(float);
        if (m.value.size() != bytes ||
            std::memcmp(m.value.data(), rows_->Vec(ord), bytes) != 0) {
          err = "row " + std::to_string(ord) + " carries a wrong vector";
          break;
        }
        const double exact =
            SquaredL2(q.vector.data(), rows_->Vec(ord), rows_->dim);
        if (std::fabs(m.distance - exact) > 1e-4 * std::max(1.0, exact)) {
          err = "row " + std::to_string(ord) + " distance " +
                std::to_string(m.distance) + ", exact " +
                std::to_string(exact);
          break;
        }
        if (m.distance < prev) {
          err = "neighbours not in distance order";
          break;
        }
        prev = m.distance;
        if (std::find(top.begin(), top.end(), ord) != top.end()) ++hits;
      }
      if (err.empty() && want > 0) {
        recall_sum_ += static_cast<double>(hits) / static_cast<double>(want);
        recall_n_ += 1;
      }
      break;
    }
  }
  return err.empty() ? err : Describe(q) + ": " + err;
}

double Oracle::MeanRecall() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recall_n_ == 0 ? 1.0 : recall_sum_ / static_cast<double>(recall_n_);
}

uint64_t Oracle::vector_checks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recall_n_;
}

}  // namespace perfbench

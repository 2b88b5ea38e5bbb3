#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t query;
};

// Caps the recorder's memory (~20 MB); spans past it are counted, not kept.
constexpr size_t kMaxSpans = 400'000;

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<Span> g_spans;  // Guarded by g_mu.
uint64_t g_dropped = 0;     // Guarded by g_mu.

// The query a pool-thread span belongs to: known only while exactly one
// query is in flight (0 = unknown).
std::atomic<int> g_inflight{0};
std::atomic<uint64_t> g_sole_query{0};

thread_local uint64_t t_current = 0;
thread_local uint64_t t_query = 0;

}  // namespace

void EnableSpans(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

ScopedSpan::ScopedSpan(const char* name, bool is_query)
    : name_(name), active_(SpansEnabled()), is_query_(is_query) {
  if (!active_) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  saved_current_ = t_current;
  saved_query_ = t_query;
  if (t_current != 0) {
    parent_ = t_current;
    query_ = t_query;
  } else if (!is_query) {
    parent_ = g_sole_query.load(std::memory_order_relaxed);
    query_ = parent_;
  }
  if (is_query) {
    query_ = id_;
    const int now_inflight = g_inflight.fetch_add(1) + 1;
    g_sole_query.store(now_inflight == 1 ? id_ : 0);
  }
  t_current = id_;
  t_query = query_;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end = NowNs();
  t_current = saved_current_;
  t_query = saved_query_;
  if (is_query_) {
    g_inflight.fetch_sub(1);
    g_sole_query.store(0);
  }
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_spans.size() < kMaxSpans) {
    g_spans.push_back({name_, start_ns_, end, id_, parent_, query_});
  } else {
    ++g_dropped;
  }
}

uint64_t SpanCount() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans.size();
}

bool WriteSpans(const std::string& path, const std::string& header_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  std::fprintf(f, "%s\n", header_json.c_str());
  std::fprintf(f, "{\"spans\":%zu,\"dropped\":%llu}\n", g_spans.size(),
               static_cast<unsigned long long>(g_dropped));
  for (const Span& s : g_spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%llu,\"parent\":%llu,\"query\":%llu}\n",
                 s.name, s.start_ns / 1e3, s.end_ns / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

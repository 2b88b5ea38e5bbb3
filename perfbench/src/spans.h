// In-memory span recorder for the traced run: one span around each call the
// benchmark makes into a layer (query execution, maintenance calls, direct
// module calls, and every request the counting store forwards), each with a
// name, start, end, parent and query id. Spans are kept in memory and
// written out once the run ends; recording is off (one relaxed load per
// site) in untraced runs, which are the only ones end-to-end figures come
// from.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Turns recording on or off process-wide.
void EnableSpans(bool on);
bool SpansEnabled();

/// Nanoseconds since the process's benchmark epoch (steady clock).
int64_t NowNs();

/// Records one span for its scope. The parent is the innermost open span
/// of the same thread; on a thread with none open (a pool thread serving
/// a fan-out), it is the one query in flight, or 0 when several are.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, false) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 protected:
  ScopedSpan(const char* name, bool is_query);

 private:
  const char* name_;
  bool active_;
  bool is_query_;
  int64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t query_ = 0;
  uint64_t saved_current_ = 0;  ///< The thread's open span before this one.
  uint64_t saved_query_ = 0;
};

/// The root span of one query: every span opened under it carries its id.
class QuerySpan : public ScopedSpan {
 public:
  explicit QuerySpan(const char* name) : ScopedSpan(name, true) {}
};

/// Spans recorded so far.
uint64_t SpanCount();

/// Writes the recorded spans as JSON lines after a header line carrying
/// `header_json` (an object). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::string& header_json);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

#include "counting_store.h"

#include "spans.h"

namespace perfbench {

using rottnest::Buffer;
using rottnest::Slice;
using rottnest::Status;
using rottnest::objectstore::ObjectMeta;

namespace {

// Span names per (operation, key class); static so spans keep pointers.
const char* const kGetNames[kNumClasses] = {
    "objectstore.get.meta", "objectstore.get.index", "objectstore.get.data",
    "objectstore.get.other"};
const char* const kHeadNames[kNumClasses] = {
    "objectstore.head.meta", "objectstore.head.index",
    "objectstore.head.data", "objectstore.head.other"};
const char* const kListNames[kNumClasses] = {
    "objectstore.list.meta", "objectstore.list.index",
    "objectstore.list.data", "objectstore.list.other"};

}  // namespace

uint64_t IoCounts::total_requests() const {
  uint64_t t = 0;
  for (uint64_t r : requests) t += r;
  return t;
}

uint64_t IoCounts::total_bytes_read() const {
  uint64_t t = 0;
  for (uint64_t b : bytes_read) t += b;
  return t;
}

IoCounts IoCounts::operator-(const IoCounts& base) const {
  IoCounts d;
  for (int c = 0; c < kNumClasses; ++c) {
    d.requests[c] = requests[c] - base.requests[c];
    d.bytes_read[c] = bytes_read[c] - base.bytes_read[c];
  }
  d.writes = writes - base.writes;
  d.bytes_written = bytes_written - base.bytes_written;
  d.wait_ns = wait_ns - base.wait_ns;
  return d;
}

KeyClass CountingStore::Classify(const std::string& key) const {
  if (key.find("/_log/") != std::string::npos ||
      key.find("/_meta/") != std::string::npos) {
    return kMeta;
  }
  if (key.compare(0, index_prefix_.size(), index_prefix_) == 0) return kIndex;
  if (key.find("/data/") != std::string::npos ||
      key.find("/dv/") != std::string::npos) {
    return kData;
  }
  return kOther;
}

IoCounts CountingStore::Counts() const {
  IoCounts c;
  for (int i = 0; i < kNumClasses; ++i) {
    c.requests[i] = requests_[i].load();
    c.bytes_read[i] = bytes_read_[i].load();
  }
  c.writes = writes_.load();
  c.bytes_written = bytes_written_.load();
  c.wait_ns = wait_ns_.load();
  return c;
}

void CountingStore::NoteRead(KeyClass c, uint64_t bytes, int64_t ns) {
  requests_[c].fetch_add(1);
  bytes_read_[c].fetch_add(bytes);
  wait_ns_.fetch_add(static_cast<uint64_t>(ns));
  stats_.bytes_read.fetch_add(bytes);
}

void CountingStore::NoteWrite(uint64_t bytes, int64_t ns) {
  writes_.fetch_add(1);
  bytes_written_.fetch_add(bytes);
  wait_ns_.fetch_add(static_cast<uint64_t>(ns));
  stats_.bytes_written.fetch_add(bytes);
}

Status CountingStore::Put(const std::string& key, Slice data) {
  ScopedSpan span("objectstore.put");
  const int64_t t0 = NowNs();
  Status s = inner_->Put(key, data);
  stats_.puts.fetch_add(1);
  NoteWrite(data.size(), NowNs() - t0);
  return s;
}

Status CountingStore::PutIfAbsent(const std::string& key, Slice data) {
  ScopedSpan span("objectstore.put");
  const int64_t t0 = NowNs();
  Status s = inner_->PutIfAbsent(key, data);
  stats_.puts.fetch_add(1);
  NoteWrite(data.size(), NowNs() - t0);
  return s;
}

Status CountingStore::Get(const std::string& key, Buffer* out) {
  const KeyClass c = Classify(key);
  ScopedSpan span(kGetNames[c]);
  const int64_t t0 = NowNs();
  Status s = inner_->Get(key, out);
  stats_.gets.fetch_add(1);
  NoteRead(c, s.ok() ? out->size() : 0, NowNs() - t0);
  return s;
}

Status CountingStore::GetRange(const std::string& key, uint64_t offset,
                               uint64_t length, Buffer* out) {
  const KeyClass c = Classify(key);
  ScopedSpan span(kGetNames[c]);
  const int64_t t0 = NowNs();
  Status s = inner_->GetRange(key, offset, length, out);
  stats_.gets.fetch_add(1);
  NoteRead(c, s.ok() ? out->size() : 0, NowNs() - t0);
  return s;
}

Status CountingStore::Head(const std::string& key, ObjectMeta* out) {
  const KeyClass c = Classify(key);
  ScopedSpan span(kHeadNames[c]);
  const int64_t t0 = NowNs();
  Status s = inner_->Head(key, out);
  stats_.heads.fetch_add(1);
  NoteRead(c, 0, NowNs() - t0);
  return s;
}

Status CountingStore::List(const std::string& prefix,
                           std::vector<ObjectMeta>* out) {
  const KeyClass c = Classify(prefix);
  ScopedSpan span(kListNames[c]);
  const int64_t t0 = NowNs();
  Status s = inner_->List(prefix, out);
  stats_.lists.fetch_add(1);
  NoteRead(c, 0, NowNs() - t0);
  return s;
}

Status CountingStore::Delete(const std::string& key) {
  ScopedSpan span("objectstore.delete");
  const int64_t t0 = NowNs();
  Status s = inner_->Delete(key);
  stats_.deletes.fetch_add(1);
  NoteWrite(0, NowNs() - t0);
  return s;
}

}  // namespace perfbench

// A counting and timing ObjectStore decorator, placed between the client
// and the backing store so it sees exactly the physical requests the
// program makes. Each key is classified by the lake layout:
//
//   meta   — table log, index-metadata log and their checkpoints
//            (`.../_log/...`, `<index_dir>/_meta/...`);
//   index  — index objects (`<index_dir>/...`);
//   data   — data files and deletion vectors (`.../data/...`, `.../dv/...`).
//
// Counts are per class; the wall time spent inside forwarded calls is the
// store wait the client saw. In a traced run every forwarded call is also a
// span (see spans.h).
#ifndef PERFBENCH_COUNTING_STORE_H_
#define PERFBENCH_COUNTING_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "objectstore/object_store.h"

namespace perfbench {

enum KeyClass : int { kMeta = 0, kIndex = 1, kData = 2, kOther = 3 };
constexpr int kNumClasses = 4;

/// A point-in-time copy of the decorator's counters; subtract two to get
/// the requests of a phase.
struct IoCounts {
  std::array<uint64_t, kNumClasses> requests{};  ///< GET/range GET/HEAD/LIST.
  std::array<uint64_t, kNumClasses> bytes_read{};
  uint64_t writes = 0;         ///< PUT/conditional PUT/DELETE.
  uint64_t bytes_written = 0;
  uint64_t wait_ns = 0;        ///< Wall time inside forwarded calls.

  uint64_t total_requests() const;
  uint64_t total_bytes_read() const;
  IoCounts operator-(const IoCounts& base) const;
};

class CountingStore : public rottnest::objectstore::ObjectStore {
 public:
  /// `inner` must outlive the decorator; `index_dir` is the client's
  /// RottnestOptions::index_dir.
  CountingStore(rottnest::objectstore::ObjectStore* inner,
                std::string index_dir)
      : inner_(inner), index_prefix_(std::move(index_dir) + "/") {}

  rottnest::Status Put(const std::string& key, rottnest::Slice data) override;
  rottnest::Status PutIfAbsent(const std::string& key,
                               rottnest::Slice data) override;
  rottnest::Status Get(const std::string& key, rottnest::Buffer* out) override;
  rottnest::Status GetRange(const std::string& key, uint64_t offset,
                            uint64_t length, rottnest::Buffer* out) override;
  rottnest::Status Head(const std::string& key,
                        rottnest::objectstore::ObjectMeta* out) override;
  rottnest::Status List(
      const std::string& prefix,
      std::vector<rottnest::objectstore::ObjectMeta>* out) override;
  rottnest::Status Delete(const std::string& key) override;

  const rottnest::Clock& clock() const override { return inner_->clock(); }
  const rottnest::objectstore::IoStats& stats() const override {
    return stats_;
  }

  KeyClass Classify(const std::string& key) const;
  IoCounts Counts() const;

 private:
  /// Counts one read request of `key` that took `ns` and returned `bytes`.
  void NoteRead(KeyClass c, uint64_t bytes, int64_t ns);
  void NoteWrite(uint64_t bytes, int64_t ns);

  rottnest::objectstore::ObjectStore* inner_;
  std::string index_prefix_;
  std::array<std::atomic<uint64_t>, kNumClasses> requests_{};
  std::array<std::atomic<uint64_t>, kNumClasses> bytes_read_{};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> wait_ns_{0};
  rottnest::objectstore::IoStats stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_STORE_H_

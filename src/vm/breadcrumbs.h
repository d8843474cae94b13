// Execution breadcrumbs (paper §2.4): cheap post-crash information that
// trims RES's backward search without any recording overhead.
//
//  - LbrRing models the Intel Last Branch Record: the source/destination of
//    the last kLbrDepth branches per thread, maintained by hardware "with
//    virtually no overhead" and harvested only after the failure.
//  - ErrorLog models the application's existing log (kOutput events): coarse
//    anchors that must appear in any synthesized suffix.
#ifndef RES_VM_BREADCRUMBS_H_
#define RES_VM_BREADCRUMBS_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/ir/module.h"

namespace res {

inline constexpr size_t kLbrDepth = 16;
// Entries an ErrorLog keeps before rotating out the oldest.
inline constexpr size_t kErrorLogCapacity = 64;

struct BranchRecord {
  Pc source;  // the branch instruction (terminator)
  Pc dest;    // first instruction of the destination block
  bool operator==(const BranchRecord&) const = default;
};

// Fixed-depth ring of the most recent branches of one thread, oldest first
// when harvested.
class LbrRing {
 public:
  void Record(const BranchRecord& rec) {
    if (entries_.size() < kLbrDepth) {
      entries_.push_back(rec);
    } else {
      entries_[next_] = rec;
    }
    next_ = (next_ + 1) % kLbrDepth;
  }

  // Entries in execution order (oldest first).
  std::vector<BranchRecord> Harvest() const {
    std::vector<BranchRecord> out;
    if (entries_.size() < kLbrDepth) {
      out = entries_;
    } else {
      out.reserve(kLbrDepth);
      for (size_t i = 0; i < kLbrDepth; ++i) {
        out.push_back(entries_[(next_ + i) % kLbrDepth]);
      }
    }
    return out;
  }

 private:
  std::vector<BranchRecord> entries_;
  size_t next_ = 0;
};

struct ErrorLogEntry {
  uint32_t thread = 0;
  Pc pc;                 // the kOutput instruction
  int64_t channel = 0;
  int64_t value = 0;
  StrId message = kNoStr;
  bool operator==(const ErrorLogEntry&) const = default;
};

// Bounded application log; only the most recent kErrorLogCapacity entries
// survive, mirroring log rotation. A ring like LbrRing: appending never
// moves the survivors.
class ErrorLog {
 public:
  void Append(const ErrorLogEntry& e) {
    if (entries_.size() < kErrorLogCapacity) {
      entries_.push_back(e);
    } else {
      entries_[next_] = e;
    }
    next_ = (next_ + 1) % kErrorLogCapacity;
  }

  // Entries in execution order (oldest first). Until the log fills, next_
  // is its size, so the rotation is the identity.
  std::vector<ErrorLogEntry> entries() const {
    std::vector<ErrorLogEntry> out;
    out.reserve(entries_.size());
    std::rotate_copy(entries_.begin(), entries_.begin() + next_, entries_.end(),
                     std::back_inserter(out));
    return out;
  }

 private:
  std::vector<ErrorLogEntry> entries_;
  size_t next_ = 0;
};

}  // namespace res

#endif  // RES_VM_BREADCRUMBS_H_

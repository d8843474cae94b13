// Little-endian wire primitives shared by the binary codecs (RESCORE
// coredumps, RESMOD1 modules).
//
// WireReader parses UNTRUSTED bytes: every read is bounds-checked and
// returns false instead of reading past the end, and FitsRemaining gates
// element counts before anything is sized by them. Each codec owns its
// magic, version and record layout.
#ifndef RES_SUPPORT_WIRE_H_
#define RES_SUPPORT_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace res {

class WireWriter {
 public:
  void U8(uint8_t v) { Put(v, 1); }
  void U16(uint16_t v) { Put(v, 2); }
  void U32(uint32_t v) { Put(v, 4); }
  void U64(uint64_t v) { Put(v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void Put(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  bool U8(uint8_t* v) { return Get(v); }
  bool U16(uint16_t* v) { return Get(v); }
  bool U32(uint32_t* v) { return Get(v); }
  bool U64(uint64_t* v) { return Get(v); }
  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) {
      return false;
    }
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool Str(std::string* s) {
    uint64_t n;
    // Compare against the remaining byte count, never against pos_ + n: an
    // adversarial n near UINT64_MAX would wrap the addition and pass.
    if (!U64(&n) || n > Remaining()) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(buf_.data()) + pos_,
              static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }
  // Sanity gate for untrusted element counts: a table of `count` elements,
  // each at least `min_element_bytes` on the wire, cannot be larger than
  // the remaining payload. Checked BEFORE any loop or allocation sized by
  // the count, so corrupt bytes can neither drive unbounded resize() nor
  // spin a read loop that only fails at the end.
  bool FitsRemaining(uint64_t count, uint64_t min_element_bytes) const {
    return count <= Remaining() / min_element_bytes;
  }
  uint64_t Remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  template <typename T>
  bool Get(T* v) {
    if (Remaining() < sizeof(T)) {
      return false;
    }
    uint64_t u = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      u |= static_cast<uint64_t>(buf_[pos_++]) << (8 * i);
    }
    *v = static_cast<T>(u);
    return true;
  }

  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

}  // namespace res

#endif  // RES_SUPPORT_WIRE_H_

// Address-space layout constants shared by the IR (global address assignment),
// the VM (segment mapping) and RES (classifying addresses in snapshots).
//
// The VM models a 64-bit byte-addressed address space with 8-byte words and
// word-aligned accesses. Segments are fixed so coredumps are self-describing.
#ifndef RES_IR_LAYOUT_H_
#define RES_IR_LAYOUT_H_

#include <cstdint>

namespace res {

inline constexpr uint64_t kWordSize = 8;

// Globals segment: module globals are laid out from here by the builder.
inline constexpr uint64_t kGlobalBase = 0x0000000000010000ULL;
inline constexpr uint64_t kGlobalLimit = 0x0000000001000000ULL;

// Heap segment: kAlloc carves allocations from here.
inline constexpr uint64_t kHeapBase = 0x0000000010000000ULL;
inline constexpr uint64_t kHeapLimit = 0x0000000040000000ULL;

// Threads keep their registers in frames; no stack memory is mapped.
inline constexpr uint64_t kMaxThreads = 64;

inline constexpr bool IsGlobalAddress(uint64_t addr) {
  return addr >= kGlobalBase && addr < kGlobalLimit;
}
inline constexpr bool IsHeapAddress(uint64_t addr) {
  return addr >= kHeapBase && addr < kHeapLimit;
}
inline constexpr bool IsWordAligned(uint64_t addr) { return (addr % kWordSize) == 0; }

}  // namespace res

#endif  // RES_IR_LAYOUT_H_

// Paged, word-granular address space over the two segments of layout.h.
//
// Words are 64-bit; addresses are byte-granular but accesses must be
// word-aligned (layout.h). Only the globals segment [kGlobalBase,
// kGlobalLimit) and the heap segment [kHeapBase, kHeapLimit) hold memory;
// an address outside both is never mapped. Each segment has one dense page
// table: slot i holds the page at segment base + i * kPageBytes, or null
// until a word of that page is mapped. A page is one fixed-size object,
// kPageWords words plus a kPageWords-bit mapped mask, so reads of
// never-mapped memory fault and coredumps capture exactly the mapped image.
// A table is only as long as its highest mapped page: the globals table has
// at most 4,080 entries, and the heap table grows with the words the
// allocator handed out, since allocations tile the heap from kHeapBase.
//
// A lookup is a segment test, a table index, a page and a mask bit. There
// is no lookup cache, and const members write nothing, so several threads
// may read one space at once (parallel RES engines read one dump's image).
#ifndef RES_VM_ADDRESS_SPACE_H_
#define RES_VM_ADDRESS_SPACE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/ir/layout.h"
#include "src/support/status.h"

namespace res {

class AddressSpace {
 public:
  static constexpr size_t kPageWords = 512;  // 4 KiB pages
  static constexpr uint64_t kPageBytes = kPageWords * kWordSize;

  AddressSpace() = default;

  // Copies are deep: coredumps embed a full image and snapshots are cheap
  // at our scales. Clone() is the explicit spelling.
  AddressSpace(const AddressSpace& other);
  AddressSpace& operator=(const AddressSpace& other);
  AddressSpace(AddressSpace&&) noexcept = default;
  AddressSpace& operator=(AddressSpace&&) noexcept = default;
  AddressSpace Clone() const { return *this; }

  // Maps `words` zeroed words starting at word-aligned `base`. An unaligned
  // base, or a region not inside one segment, is InvalidArgument and maps
  // nothing.
  Status MapRegion(uint64_t base, uint64_t words);

  // Unmaps words (replay unmaps allocations its suffix has yet to make;
  // kFree keeps pages mapped so RES can still observe freed memory in the
  // dump, like a real coredump does).
  void UnmapRegion(uint64_t base, uint64_t words);

  // The mapped word at `addr`; null if `addr` is unaligned or unmapped.
  const int64_t* FindWord(uint64_t addr) const;
  int64_t* FindWord(uint64_t addr) {
    return const_cast<int64_t*>(std::as_const(*this).FindWord(addr));
  }

  bool IsMappedWord(uint64_t addr) const { return FindWord(addr) != nullptr; }

  // Word-aligned read/write; OutOfRange on unmapped or unaligned access.
  Result<int64_t> ReadWord(uint64_t addr) const;
  Status WriteWord(uint64_t addr, int64_t value);

  // The error ReadWord (`is_write` false) or WriteWord returns for an
  // address FindWord does not find.
  static Status AccessError(uint64_t addr, bool is_write);

  // Maps the word at `addr` if need be and stores `value`, for trusted
  // callers (coredump restore, fault injector). An unaligned address or
  // one outside both segments is never mapped: the write is dropped.
  void WriteWordUnchecked(uint64_t addr, int64_t value);

  // Iterates all mapped words in address order.
  void ForEachWord(const std::function<void(uint64_t addr, int64_t value)>& fn) const;

  size_t MappedWordCount() const;

  // Equal when the same words are mapped to the same values; a page that
  // maps nothing equals a missing one.
  bool operator==(const AddressSpace& other) const;

 private:
  // Every word a page does not map is 0 (mapping and unmapping zero it), so
  // pages compare bytewise.
  struct Page {
    int64_t words[kPageWords] = {};
    uint64_t mapped[kPageWords / 64] = {};  // bit s of mapped[s / 64]: words[s]
  };
  using Table = std::vector<std::unique_ptr<Page>>;

  // The page holding `addr`, and addr's word index in it; null if `addr`
  // is unaligned, outside both segments, or its page was never built.
  const Page* FindPage(uint64_t addr, size_t* slot) const;
  Page* FindPage(uint64_t addr, size_t* slot) {
    return const_cast<Page*>(std::as_const(*this).FindPage(addr, slot));
  }
  // Likewise for in-segment, word-aligned `addr`, building the page if
  // missing.
  Page& EnsurePage(uint64_t addr, size_t* slot);

  static Table CopyTable(const Table& table);
  static void ForEachIn(const Table& table, uint64_t base,
                        const std::function<void(uint64_t, int64_t)>& fn);
  static bool TablesEqual(const Table& a, const Table& b);

  Table globals_;  // pages from kGlobalBase
  Table heap_;     // pages from kHeapBase
};

inline const AddressSpace::Page* AddressSpace::FindPage(uint64_t addr,
                                                         size_t* slot) const {
  const bool global = IsGlobalAddress(addr);
  if ((!global && !IsHeapAddress(addr)) || !IsWordAligned(addr)) {
    return nullptr;
  }
  const Table& table = global ? globals_ : heap_;
  const uint64_t offset = addr - (global ? kGlobalBase : kHeapBase);
  if (offset / kPageBytes >= table.size()) {
    return nullptr;
  }
  *slot = offset % kPageBytes / kWordSize;
  return table[offset / kPageBytes].get();
}

inline const int64_t* AddressSpace::FindWord(uint64_t addr) const {
  size_t slot = 0;
  const Page* page = FindPage(addr, &slot);
  if (page == nullptr || ((page->mapped[slot / 64] >> (slot % 64)) & 1) == 0) {
    return nullptr;
  }
  return &page->words[slot];
}

}  // namespace res

#endif  // RES_VM_ADDRESS_SPACE_H_

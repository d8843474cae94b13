#include "src/vm/address_space.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "src/support/string_util.h"

namespace res {

AddressSpace::AddressSpace(const AddressSpace& other)
    : globals_(CopyTable(other.globals_)), heap_(CopyTable(other.heap_)) {}

AddressSpace& AddressSpace::operator=(const AddressSpace& other) {
  if (this != &other) {
    globals_ = CopyTable(other.globals_);
    heap_ = CopyTable(other.heap_);
  }
  return *this;
}

Status AddressSpace::MapRegion(uint64_t base, uint64_t words) {
  if (!IsWordAligned(base)) {
    return InvalidArgument(StrFormat("MapRegion: unaligned base 0x%llx",
                                     static_cast<unsigned long long>(base)));
  }
  const bool in_globals =
      IsGlobalAddress(base) && words <= (kGlobalLimit - base) / kWordSize;
  const bool in_heap =
      IsHeapAddress(base) && words <= (kHeapLimit - base) / kWordSize;
  if (words != 0 && !in_globals && !in_heap) {
    return InvalidArgument(
        StrFormat("MapRegion: %llu words at 0x%llx leave their segment",
                  static_cast<unsigned long long>(words),
                  static_cast<unsigned long long>(base)));
  }
  for (uint64_t i = 0; i < words; ++i) {
    size_t slot = 0;
    Page& page = EnsurePage(base + i * kWordSize, &slot);
    page.mapped[slot / 64] |= uint64_t{1} << (slot % 64);
    page.words[slot] = 0;
  }
  return OkStatus();
}

void AddressSpace::UnmapRegion(uint64_t base, uint64_t words) {
  for (uint64_t i = 0; i < words; ++i) {
    size_t slot = 0;
    if (Page* page = FindPage(base + i * kWordSize, &slot)) {
      page->mapped[slot / 64] &= ~(uint64_t{1} << (slot % 64));
      page->words[slot] = 0;
    }
  }
}

Result<int64_t> AddressSpace::ReadWord(uint64_t addr) const {
  if (const int64_t* word = FindWord(addr)) {
    return *word;
  }
  return AccessError(addr, /*is_write=*/false);
}

Status AddressSpace::WriteWord(uint64_t addr, int64_t value) {
  int64_t* word = FindWord(addr);
  if (word == nullptr) {
    return AccessError(addr, /*is_write=*/true);
  }
  *word = value;
  return OkStatus();
}

Status AddressSpace::AccessError(uint64_t addr, bool is_write) {
  const auto a = static_cast<unsigned long long>(addr);
  if (!IsWordAligned(addr)) {
    return OutOfRange(is_write ? StrFormat("unaligned write at 0x%llx", a)
                               : StrFormat("unaligned read at 0x%llx", a));
  }
  return OutOfRange(is_write ? StrFormat("write to unmapped 0x%llx", a)
                             : StrFormat("read of unmapped 0x%llx", a));
}

void AddressSpace::WriteWordUnchecked(uint64_t addr, int64_t value) {
  if ((!IsGlobalAddress(addr) && !IsHeapAddress(addr)) || !IsWordAligned(addr)) {
    return;
  }
  size_t slot = 0;
  Page& page = EnsurePage(addr, &slot);
  page.mapped[slot / 64] |= uint64_t{1} << (slot % 64);
  page.words[slot] = value;
}

void AddressSpace::ForEachWord(
    const std::function<void(uint64_t addr, int64_t value)>& fn) const {
  ForEachIn(globals_, kGlobalBase, fn);  // the globals lie below the heap
  ForEachIn(heap_, kHeapBase, fn);
}

size_t AddressSpace::MappedWordCount() const {
  size_t n = 0;
  for (const Table* table : {&globals_, &heap_}) {
    for (const auto& page : *table) {
      if (page != nullptr) {
        for (uint64_t bits : page->mapped) {
          n += static_cast<size_t>(std::popcount(bits));
        }
      }
    }
  }
  return n;
}

bool AddressSpace::operator==(const AddressSpace& other) const {
  return TablesEqual(globals_, other.globals_) && TablesEqual(heap_, other.heap_);
}

AddressSpace::Page& AddressSpace::EnsurePage(uint64_t addr, size_t* slot) {
  const bool global = IsGlobalAddress(addr);
  Table& table = global ? globals_ : heap_;
  const uint64_t offset = addr - (global ? kGlobalBase : kHeapBase);
  const uint64_t index = offset / kPageBytes;
  if (index >= table.size()) {
    table.resize(index + 1);
  }
  if (table[index] == nullptr) {
    table[index] = std::make_unique<Page>();
  }
  *slot = offset % kPageBytes / kWordSize;
  return *table[index];
}

AddressSpace::Table AddressSpace::CopyTable(const Table& table) {
  Table copy(table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i] != nullptr) {
      copy[i] = std::make_unique<Page>(*table[i]);
    }
  }
  return copy;
}

void AddressSpace::ForEachIn(const Table& table, uint64_t base,
                             const std::function<void(uint64_t, int64_t)>& fn) {
  for (size_t i = 0; i < table.size(); ++i) {
    const Page* page = table[i].get();
    if (page == nullptr) {
      continue;
    }
    for (size_t m = 0; m < kPageWords / 64; ++m) {
      for (uint64_t bits = page->mapped[m]; bits != 0; bits &= bits - 1) {
        const size_t slot = m * 64 + static_cast<size_t>(std::countr_zero(bits));
        fn(base + i * kPageBytes + slot * kWordSize, page->words[slot]);
      }
    }
  }
}

bool AddressSpace::TablesEqual(const Table& a, const Table& b) {
  static_assert(std::has_unique_object_representations_v<Page>,
                "pages compare bytewise");
  static const Page kEmpty;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    const Page* pa = i < a.size() && a[i] != nullptr ? a[i].get() : &kEmpty;
    const Page* pb = i < b.size() && b[i] != nullptr ? b[i].get() : &kEmpty;
    if (pa != pb && std::memcmp(pa, pb, sizeof(Page)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace res

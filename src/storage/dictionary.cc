#include "storage/dictionary.h"

#include <functional>

#include "common/logging.h"

namespace wimpi::storage {

uint64_t Dictionary::Hash(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

size_t Dictionary::Probe(std::string_view s, uint64_t h) const {
  const size_t mask = slots_.size() - 1;
  const auto tag = static_cast<uint32_t>(h >> 32);
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.code == kEmpty ||
        (slot.tag == tag && values_[slot.code] == s)) {
      return i;
    }
  }
}

int32_t Dictionary::Insert(size_t slot, std::string&& s, uint64_t h) {
  const auto code = static_cast<int32_t>(values_.size());
  values_.push_back(std::move(s));
  hashes_.push_back(h);
  slots_[slot] = {code, static_cast<uint32_t>(h >> 32)};
  return code;
}

void Dictionary::Reserve(int64_t n) {
  // Load factor <= 1/2 keeps linear probes short.
  if (static_cast<int64_t>(slots_.size()) >= 2 * n) return;
  size_t cap = slots_.empty() ? 16 : slots_.size();
  while (static_cast<int64_t>(cap) < 2 * n) cap *= 2;
  values_.reserve(cap / 2);
  hashes_.reserve(cap / 2);
  slots_.assign(cap, Slot{});
  const size_t mask = cap - 1;
  for (size_t code = 0; code < hashes_.size(); ++code) {
    size_t i = hashes_[code] & mask;
    while (slots_[i].code != kEmpty) i = (i + 1) & mask;
    slots_[i] = {static_cast<int32_t>(code),
                 static_cast<uint32_t>(hashes_[code] >> 32)};
  }
}

int32_t Dictionary::GetOrAdd(std::string_view s) {
  WIMPI_CHECK(!frozen_) << "GetOrAdd on frozen dictionary";
  Reserve(size() + 1);
  const uint64_t h = Hash(s);
  const size_t slot = Probe(s, h);
  if (slots_[slot].code != kEmpty) return slots_[slot].code;
  return Insert(slot, std::string(s), h);
}

int32_t Dictionary::Find(std::string_view s) const {
  if (!frozen_) {
    if (slots_.empty()) return -1;
    return slots_[Probe(s, Hash(s))].code;
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] == s) return static_cast<int32_t>(i);
  }
  return -1;
}

std::vector<int32_t> Dictionary::Merge(Dictionary&& other) {
  WIMPI_CHECK(!frozen_ && !other.frozen_) << "Merge with a frozen dictionary";
  const size_t n = other.values_.size();
  std::vector<int32_t> remap(n);
  // Sized for the worst case up front, so the slot mask is fixed for the
  // loop and the slot of a value a few codes ahead can be prefetched.
  Reserve(size() + static_cast<int64_t>(n));
  const size_t mask = slots_.size() - 1;
  constexpr size_t kAhead = 8;
  for (size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) {
      __builtin_prefetch(&slots_[other.hashes_[i + kAhead] & mask]);
    }
    const uint64_t h = other.hashes_[i];
    const size_t slot = Probe(other.values_[i], h);
    remap[i] = slots_[slot].code != kEmpty
                   ? slots_[slot].code
                   : Insert(slot, std::move(other.values_[i]), h);
  }
  other = Dictionary();
  return remap;
}

void Dictionary::FreezeForRead() {
  hashes_ = {};
  slots_ = {};
  frozen_ = true;
}

int64_t Dictionary::MemoryBytes() const {
  int64_t bytes = 0;
  for (const auto& v : values_) {
    bytes += static_cast<int64_t>(v.capacity()) + sizeof(std::string);
  }
  if (!frozen_) bytes += size() * 64;
  return bytes;
}

}  // namespace wimpi::storage

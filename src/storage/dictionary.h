#ifndef WIMPI_STORAGE_DICTIONARY_H_
#define WIMPI_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wimpi::storage {

// Order-preserving-insertion string dictionary. Codes are assigned densely
// in first-seen order. Each value is stored once, in `values_`; the
// reverse index is an open-addressing table of codes over it (plus one
// hash per code), so a lookup allocates nothing. The index is only needed
// while loading and can be released with FreezeForRead().
class Dictionary {
 public:
  Dictionary() = default;

  // Returns the code for `s`, inserting it if new. CHECK-fails once frozen.
  int32_t GetOrAdd(std::string_view s);

  // Returns the code for `s` or -1 if absent. Works after FreezeForRead()
  // by falling back to a linear scan (only used by tests and point lookups).
  int32_t Find(std::string_view s) const;

  // Adds `other`'s values in `other`'s code order, as GetOrAdd would one
  // by one, and returns the map from `other`'s codes to this dictionary's.
  // Merging per-range dictionaries in range order thus reproduces the
  // codes a single sequential load assigns. Moves the strings and reuses
  // the stored hashes; `other` is left empty.
  std::vector<int32_t> Merge(Dictionary&& other);

  // Sizes the index for `n` entries, so that many GetOrAdd/Merge calls
  // never rehash.
  void Reserve(int64_t n);

  std::string_view ValueAt(int32_t code) const { return values_[code]; }
  int64_t size() const { return static_cast<int64_t>(values_.size()); }

  // Drops the hash index; the dictionary becomes read-only.
  void FreezeForRead();

  // Modeled heap bytes: every value's string (capacity + object) plus a
  // flat 64 B per entry for the index while it exists. The per-entry
  // charge is the estimate the working-set model was calibrated with, not
  // the size of the index above (which is smaller); it stays fixed so
  // modeled results do not move when the index implementation does.
  int64_t MemoryBytes() const;

 private:
  static constexpr int32_t kEmpty = -1;

  // An index slot: the code it holds and the high half of its value's
  // hash, so most probes that miss never touch `values_`.
  struct Slot {
    int32_t code = kEmpty;
    uint32_t tag = 0;
  };

  static uint64_t Hash(std::string_view s);
  // Index of the slot holding `s` (hash `h`), or of the empty slot where
  // it belongs.
  size_t Probe(std::string_view s, uint64_t h) const;
  int32_t Insert(size_t slot, std::string&& s, uint64_t h);

  std::vector<std::string> values_;
  std::vector<uint64_t> hashes_;  // hashes_[code] = Hash(values_[code])
  std::vector<Slot> slots_;       // power-of-two size, or empty
  bool frozen_ = false;
};

}  // namespace wimpi::storage

#endif  // WIMPI_STORAGE_DICTIONARY_H_

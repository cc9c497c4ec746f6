// HintTable — the flat job-id table behind each PlacementService shard's
// hints: open addressing with linear probing over one power-of-two slot
// array, erase by backward shift (no tombstones), load factor at most 1/2.
// It allocates only when it grows, so a table whose size stays bounded —
// hints leave it as consumers look them up — stops touching the heap after
// warm-up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace byom::serving {

template <typename V>
class HintTable {
 public:
  std::size_t size() const { return size_; }

  // Inserts (id, value) unless `id` is present; returns whether it did.
  bool insert(std::uint64_t id, const V& value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(id);
    for (; slots_[i].used; i = (i + 1) & mask_) {
      if (slots_[i].id == id) return false;
    }
    slots_[i] = Slot{id, true, value};
    ++size_;
    return true;
  }

  // Removes `id` and returns its value (nullopt when absent). Later
  // entries of the probe run shift back into the hole, so lookups never
  // cross a gap.
  std::optional<V> take(std::uint64_t id) {
    std::size_t hole = index_of(id);
    if (hole == kAbsent) return std::nullopt;
    std::optional<V> value(std::move(slots_[hole].value));
    for (std::size_t j = (hole + 1) & mask_; slots_[j].used;
         j = (j + 1) & mask_) {
      // Slot j may fill the hole unless its home lies cyclically in
      // (hole, j]: then the hole is outside its probe run.
      const std::size_t h = home(slots_[j].id);
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
    slots_[hole].used = false;
    --size_;
    return value;
  }

 private:
  struct Slot {
    std::uint64_t id = 0;
    bool used = false;
    V value{};
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  std::size_t home(std::uint64_t id) const {
    std::uint64_t h = id * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h) & mask_;
  }

  std::size_t index_of(std::uint64_t id) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(id); slots_[i].used; i = (i + 1) & mask_) {
      if (slots_[i].id == id) return i;
    }
    return kAbsent;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.used) insert(slot.id, slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace byom::serving

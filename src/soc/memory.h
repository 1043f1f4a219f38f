// 4K byte-wide instruction/data memory core.

#pragma once

#include <array>

#include "cpu/isa.h"
#include "cpu/memory_image.h"

namespace xtest::soc {

class Memory {
 public:
  Memory() { data_.fill(0); }

  std::uint8_t read(cpu::Addr a) const { return data_[a & cpu::kAddrMask]; }
  void write(cpu::Addr a, std::uint8_t v) {
    std::uint8_t& cell = data_[a & cpu::kAddrMask];
    if (cell == v) return;
    cell = v;
    ++version_;
  }

  /// Loads an image the way an external tester would: the full 4K space,
  /// undefined bytes cleared to zero.
  void load(const cpu::MemoryImage& image) {
    data_ = image.raw();
    ++version_;
  }

  void clear() {
    data_.fill(0);
    ++version_;
  }

  const std::array<std::uint8_t, cpu::kMemWords>& raw() const { return data_; }

  /// Reinstates a previously captured raw array (slice restore).
  void restore_raw(const std::array<std::uint8_t, cpu::kMemWords>& raw) {
    data_ = raw;
    ++version_;
  }

  /// Bumped by every write that changes a byte and by every load, clear
  /// or restore: equal versions at two points of one run mean the memory
  /// did not change in between (System::run's loop detection).
  std::uint64_t version() const { return version_; }

 private:
  std::array<std::uint8_t, cpu::kMemWords> data_;
  std::uint64_t version_ = 0;
};

}  // namespace xtest::soc

// RAII device-memory buffer.
//
// Backed by host RAM (the "device" is simulated) but charged against the
// device's capacity-enforced MemoryTracker, so any algorithm that would not
// fit on the real GPU throws exactly where cudaMalloc would have failed.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/memory_tracker.hpp"

namespace lasagna::gpu {

class Device;  // device.hpp

template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  /// Use Device::alloc<T>() rather than calling this directly: it makes
  /// the `count * sizeof(T)`-byte device reservation this buffer backs.
  DeviceBuffer(util::TrackedAllocation allocation, std::size_t count)
      : allocation_(std::move(allocation)), data_(count) {}

  DeviceBuffer(DeviceBuffer&&) noexcept = default;
  DeviceBuffer& operator=(DeviceBuffer&&) noexcept = default;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::uint64_t bytes() const { return allocation_.bytes(); }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  [[nodiscard]] std::span<T> span() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> span() const {
    return {data_.data(), data_.size()};
  }

  /// First `n` elements (device-side algorithms often use a logical size
  /// smaller than the allocation).
  [[nodiscard]] std::span<T> first(std::size_t n) {
    return span().first(n);
  }
  [[nodiscard]] std::span<const T> first(std::size_t n) const {
    return span().first(n);
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// Free the device memory immediately (otherwise freed on destruction).
  void reset() {
    data_.clear();
    data_.shrink_to_fit();
    allocation_.reset();
  }

 private:
  util::TrackedAllocation allocation_;
  std::vector<T> data_;
};

}  // namespace lasagna::gpu

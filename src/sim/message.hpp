// Typed message payloads. MPI-style: the sender packs trivially copyable
// values into a byte buffer; the receiver unpacks them in the same order.
// Pack/unpack is bounds-checked so protocol mismatches fail loudly instead
// of reading garbage.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace pcmd::sim {

using Buffer = std::vector<std::uint8_t>;

class Packer {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Packer::put requires a trivially copyable type");
    const auto offset = buffer_.size();
    buffer_.resize(offset + sizeof(T));
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  // Appends the elements' bytes in one insert, so a large vector is copied
  // once rather than zero-filled by resize and then copied over.
  template <typename T>
  void put_vector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Packer::put_vector requires a trivially copyable type");
    put<std::uint64_t>(values.size());
    if (!values.empty()) {
      const auto* first =
          reinterpret_cast<const std::uint8_t*>(values.data());
      buffer_.insert(buffer_.end(), first, first + values.size() * sizeof(T));
    }
  }

  // Pre-sizes the underlying buffer. Hot per-step packers (halo, digest,
  // particle migration) know their exact payload size up front; reserving
  // once replaces the geometric-growth reallocations of repeated put().
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  Buffer take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  Buffer buffer_;
};

class Unpacker {
 public:
  // Owns the buffer: accepting by value lets callers hand over the result of
  // Comm::recv directly without lifetime pitfalls. Reading starts at byte
  // `start`, so a caller that has checked a header skips it without
  // shifting the body down.
  explicit Unpacker(Buffer buffer, std::size_t start = 0)
      : buffer_(std::move(buffer)), cursor_(start) {
    if (cursor_ > buffer_.size()) {
      throw std::out_of_range("Unpacker: start " + std::to_string(start) +
                              " is past the " +
                              std::to_string(buffer_.size()) + "-byte buffer");
    }
  }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Unpacker::get requires a trivially copyable type");
    require(sizeof(T));
    T value;
    std::memcpy(&value, buffer_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Unpacker::get_vector requires a trivially copyable type");
    const auto count = get<std::uint64_t>();
    // Check the element count against the remaining bytes *before* the
    // multiply: a corrupted count near 2^64 would overflow count * sizeof(T)
    // and sail past require() into a huge allocation.
    if (count > remaining() / sizeof(T)) {
      throw std::out_of_range("Unpacker: vector count " +
                              std::to_string(count) + " exceeds the " +
                              std::to_string(remaining()) + " bytes left");
    }
    require(count * sizeof(T));
    std::vector<T> values(count);
    if (count > 0) {
      std::memcpy(values.data(), buffer_.data() + cursor_, count * sizeof(T));
    }
    cursor_ += count * sizeof(T);
    return values;
  }

  bool exhausted() const { return cursor_ == buffer_.size(); }
  std::size_t remaining() const { return buffer_.size() - cursor_; }

 private:
  void require(std::size_t bytes) const {
    if (cursor_ + bytes > buffer_.size()) {
      throw std::out_of_range("Unpacker: buffer underflow (need " +
                              std::to_string(bytes) + " bytes, have " +
                              std::to_string(buffer_.size() - cursor_) + ")");
    }
  }

  Buffer buffer_;
  std::size_t cursor_ = 0;
};

// An in-flight message. `arrival` is the virtual time at which the payload is
// available at the destination; `phase` is the BSP phase it was sent in.
struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;
  int phase = -1;
  double arrival = 0.0;
  Buffer payload;
};

}  // namespace pcmd::sim

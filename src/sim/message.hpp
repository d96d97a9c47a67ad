// CONGEST messages with explicit bit accounting.
//
// Every message carries a small type tag plus typed fields; each field
// declares the number of bits it occupies on the wire. The Network engine
// sums declared bits per directed edge per round and enforces the CONGEST
// bandwidth cap, which is how we validate the paper's congestion claims
// (Sec. 2.4) empirically rather than by trusting the implementation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx::sim {

namespace detail {
inline double as_real(std::uint64_t raw) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  double v;
  __builtin_memcpy(&v, &raw, sizeof(v));
  return v;
}
}  // namespace detail

/// A message under construction: type tag + fields with declared bit
/// widths. This is the builder programs hand to Ctx::send; the engine
/// copies it into a WireMessage, so a Message can be reused after sending.
///
/// Fields are stored inline up to kInlineFields; wider messages (tests and
/// ablations only) spill into a heap vector.
class Message {
 public:
  /// Cost charged for the type tag itself.
  static constexpr int kTypeBits = 4;
  /// Fields held without heap allocation.
  static constexpr std::size_t kInlineFields = 6;

  Message() = default;
  explicit Message(std::uint32_t type) : type_(type) {
    DISTAPX_ASSERT(type < (1u << kTypeBits));
  }

  [[nodiscard]] std::uint32_t type() const noexcept { return type_; }

  /// Appends an unsigned field. `bits` is its declared wire width; the
  /// value must fit. Returns *this for chaining.
  Message& push(std::uint64_t value, int bits) {
    DISTAPX_ENSURE_MSG(bits >= 1 && bits <= 64, "field width " << bits);
    DISTAPX_ENSURE_MSG(bits == 64 || value < (std::uint64_t{1} << bits),
                       "value " << value << " does not fit in " << bits
                                << " bits");
    store(value);
    bits_ += bits;
    return *this;
  }

  /// Appends a double field (used by the Appendix B.3 attenuation
  /// machinery). Charged `bits` on the wire; the paper bounds the required
  /// precision by O(log Δ / ε²) bits, which callers declare explicitly.
  Message& push_real(double value, int bits) {
    DISTAPX_ENSURE(bits >= 1 && bits <= 64);
    std::uint64_t raw;
    __builtin_memcpy(&raw, &value, sizeof(raw));
    store(raw);
    bits_ += bits;
    return *this;
  }

  [[nodiscard]] std::uint64_t field(std::size_t i) const {
    DISTAPX_ASSERT(i < count_);
    return i < kInlineFields ? inline_[i] : overflow_[i - kInlineFields];
  }

  [[nodiscard]] double field_real(std::size_t i) const {
    return detail::as_real(field(i));
  }

  [[nodiscard]] std::size_t num_fields() const noexcept { return count_; }

  /// Total declared wire bits including the type tag.
  [[nodiscard]] int total_bits() const noexcept { return kTypeBits + bits_; }

 private:
  void store(std::uint64_t value) {
    if (count_ < kInlineFields) {
      inline_[count_] = value;
    } else {
      overflow_.push_back(value);
    }
    ++count_;
  }

  std::uint32_t type_ = 0;
  int bits_ = 0;
  std::size_t count_ = 0;
  std::array<std::uint64_t, kInlineFields> inline_{};
  std::vector<std::uint64_t> overflow_;
};

/// A message as the receiver reads it: Message's read API in a trivially
/// copyable 40-byte record. Fields past kInlineFields (only tests and
/// ablations send them) live in the engine's per-round arena, so a copy
/// can read them only during the round it was delivered in.
class WireMessage {
 public:
  static constexpr std::size_t kInlineFields = 2;

  [[nodiscard]] std::uint32_t type() const noexcept { return type_; }

  [[nodiscard]] std::uint64_t field(std::size_t i) const {
    DISTAPX_ASSERT(i < count_);
    return i < kInlineFields ? inline_[i] : overflow_[i - kInlineFields];
  }

  [[nodiscard]] double field_real(std::size_t i) const {
    return detail::as_real(field(i));
  }

  [[nodiscard]] std::size_t num_fields() const noexcept { return count_; }

  /// Total declared wire bits including the type tag.
  [[nodiscard]] int total_bits() const noexcept { return total_bits_; }

 private:
  friend class Network;
  friend class Ctx;

  std::uint32_t type_ = 0;
  int total_bits_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t overflow_off_ = 0;  // arena index of field kInlineFields
  std::array<std::uint64_t, kInlineFields> inline_{};
  const std::uint64_t* overflow_ = nullptr;
};

/// A message as seen by its receiver: which local port it arrived on.
struct Delivery {
  std::uint32_t port;
  WireMessage msg;
};

}  // namespace distapx::sim

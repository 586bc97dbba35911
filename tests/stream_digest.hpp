// Shared test helper: a 64-bit FNV-1a digest over the exact bytes of a
// stream of values. The stream guards pin seeded outputs (Rng draws,
// procedural contexts) to golden digests, so any change that moves one
// bit of a seeded stream fails loudly.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace ckv {

class StreamDigest {
 public:
  template <class T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }

  template <class T>
  void add_all(std::span<const T> values) {
    for (const T& v : values) {
      add(v);
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace ckv

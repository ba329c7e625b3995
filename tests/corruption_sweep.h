#ifndef DISTSKETCH_TESTS_CORRUPTION_SWEEP_H_
#define DISTSKETCH_TESTS_CORRUPTION_SWEEP_H_

// Exhaustive corruption sweeps over an encoded buffer, shared by the
// decoder tests: every truncation and every single-bit flip. Each case
// is handed to `check(bytes, what)`, where `what` names the case for the
// failure message. Truncations are exact-size copies, so a decoder that
// reads past the end is an ASan error rather than a silent pass.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace distsketch {
namespace testing {

/// Every strict prefix of `bytes`, lengths 0 .. size-1.
template <typename Check>
void ForEachTruncation(std::span<const uint8_t> bytes, const Check& check) {
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    check(prefix, "prefix " + std::to_string(cut));
  }
}

/// `bytes` with one bit flipped, for every bit.
template <typename Check>
void ForEachBitFlip(std::span<const uint8_t> bytes, const Check& check) {
  std::vector<uint8_t> buf(bytes.size());
  std::copy(bytes.begin(), bytes.end(), buf.begin());
  for (size_t i = 0; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[i] ^= static_cast<uint8_t>(1u << bit);
      check(buf, "byte " + std::to_string(i) + " bit " + std::to_string(bit));
      buf[i] ^= static_cast<uint8_t>(1u << bit);
    }
  }
}

}  // namespace testing
}  // namespace distsketch

#endif  // DISTSKETCH_TESTS_CORRUPTION_SWEEP_H_

#ifndef DISTSKETCH_LINALG_CRC64_INTERNAL_H_
#define DISTSKETCH_LINALG_CRC64_INTERNAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__PCLMUL__)
#include <immintrin.h>
#endif

// CRC-64/XZ (the SimdKernelTable::crc64 entry): the ECMA-182 polynomial
// P = x^64 + 0x42F0E1EBA9EA3693, bit-reflected, init and xorout all-ones.
// Every constant the kernels use is derived below from the polynomial;
// none is pasted in. Internal to the kernel translation units.

namespace distsketch {
namespace crc64_internal {

/// P without its x^64 term, normal (MSB = x^63) bit order.
inline constexpr uint64_t kPoly = 0x42F0E1EBA9EA3693ULL;

constexpr uint64_t Reflect64(uint64_t v) {
  uint64_t r = 0;
  for (int i = 0; i < 64; ++i) r |= ((v >> i) & 1u) << (63 - i);
  return r;
}

/// P without its x^64 term in reflected order (bit i <-> x^(63-i)), the
/// register convention of the table and fold kernels.
inline constexpr uint64_t kPolyReflected = Reflect64(kPoly);

/// x^n mod P, normal order.
constexpr uint64_t XPowModP(unsigned n) {
  uint64_t r = 1;
  for (unsigned i = 0; i < n; ++i) r = (r << 1) ^ ((r >> 63) ? kPoly : 0);
  return r;
}

/// floor(x^128 / P) without its x^64 term, normal order: the Barrett
/// constant. Long division of x^128, keeping the 64 coefficients below
/// the current leading one in `window`.
constexpr uint64_t BarrettMu() {
  uint64_t quotient = 0;
  uint64_t window = 0;
  bool lead = true;  // coefficient x^128 of the dividend
  for (int k = 128; k >= 64; --k) {
    if (lead) {
      if (k < 128) quotient |= uint64_t{1} << (k - 64);
      window ^= kPoly;
    }
    lead = (window >> 63) != 0;
    window <<= 1;
  }
  return quotient;
}

/// The scalar kernel's slice-by-8 tables: kTables[k][b] is the register
/// after feeding byte b followed by k zero bytes into a zero register.
inline constexpr std::array<std::array<uint64_t, 256>, 8> kTables = [] {
  std::array<std::array<uint64_t, 256>, 8> t{};
  for (uint64_t b = 0; b < 256; ++b) {
    uint64_t c = b;
    for (int i = 0; i < 8; ++i) c = (c >> 1) ^ ((c & 1) ? kPolyReflected : 0);
    t[0][b] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xff];
    }
  }
  return t;
}();

/// Advances the reflected register `reg` over n bytes: eight bytes per
/// step through kTables, then one byte at a time.
inline uint64_t UpdateTables(uint64_t reg, const uint8_t* p, size_t n) {
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    reg ^= v;  // little-endian host
    reg = kTables[7][reg & 0xff] ^ kTables[6][(reg >> 8) & 0xff] ^
          kTables[5][(reg >> 16) & 0xff] ^ kTables[4][(reg >> 24) & 0xff] ^
          kTables[3][(reg >> 32) & 0xff] ^ kTables[2][(reg >> 40) & 0xff] ^
          kTables[1][(reg >> 48) & 0xff] ^ kTables[0][reg >> 56];
  }
  for (; n > 0; --n, ++p) reg = (reg >> 8) ^ kTables[0][(reg ^ *p) & 0xff];
  return reg;
}

// Carry-less folding. A 16-byte block loaded little-endian is a
// polynomial X of degree < 128 in reflected order (bit j <-> x^(127-j)):
// its low qword q0 holds the high half H, its high qword q1 the low half
// L, X = H x^64 + L. A carry-less product of two reflected qwords a, b is
// the reflected 128-bit image of A*B*x (one spare factor x), so moving X
// forward by D bits, X x^D = H x^(D+64) + L x^D (mod P), is
//   clmul(q0, x^(D+63) mod P) ^ clmul(q1, x^(D-1) mod P).

/// The two reflected multipliers that move a block D bits forward:
/// `lo` multiplies q0, `hi` multiplies q1 (one __m128i, lo first).
struct FoldConstant {
  uint64_t lo;
  uint64_t hi;
};

constexpr FoldConstant FoldBy(unsigned bits) {
  return {Reflect64(XPowModP(bits + 63)), Reflect64(XPowModP(bits - 1))};
}

/// Barrett multipliers in reflected order: mu without its x^64 term, and
/// P without its x^64 term.
inline constexpr uint64_t kMuReflected = Reflect64(BarrettMu());

#if defined(__PCLMUL__)

inline __m128i LoadFold(FoldConstant k) {
  return _mm_set_epi64x(static_cast<long long>(k.hi),
                        static_cast<long long>(k.lo));
}

/// X moved forward by the distance `k` was built for.
inline __m128i Fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// The reflected register after a message whose folded tail block is x
/// (the start register already XORed into the message's first qword):
/// X x^64 mod P. First Z = H (x^128 mod P) + L x^64, a 128-bit Zh x^64 +
/// Zl; then Barrett: Q = Zh + floor(Zh mu' / x^64), remainder Zl +
/// (Q P' mod x^64). The shifts undo the spare factor x of each product.
inline uint64_t Reduce(__m128i x) {
  constexpr uint64_t kX127 = FoldBy(64).lo;  // x^127 mod P
  const __m128i k = _mm_cvtsi64_si128(static_cast<long long>(kX127));
  const __m128i z =
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_srli_si128(x, 8));
  const auto z0 = static_cast<uint64_t>(_mm_cvtsi128_si64(z));
  const auto z1 =
      static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(z, z)));
  const __m128i t1 = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(z0)),
      _mm_cvtsi64_si128(static_cast<long long>(kMuReflected)), 0x00);
  const uint64_t q = z0 ^ (static_cast<uint64_t>(_mm_cvtsi128_si64(t1)) << 1);
  const __m128i t2 = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(q)),
      _mm_cvtsi64_si128(static_cast<long long>(kPolyReflected)), 0x00);
  const auto t2_lo = static_cast<uint64_t>(_mm_cvtsi128_si64(t2));
  const auto t2_hi =
      static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(t2, t2)));
  return z1 ^ (t2_lo >> 63) ^ (t2_hi << 1);
}

/// Folds the remaining whole 16-byte blocks into x, reduces it to the
/// register and runs the last n % 16 bytes through the tables.
inline uint64_t FinishFold(__m128i x, const uint8_t* p, size_t n) {
  constexpr FoldConstant kBy128 = FoldBy(128);
  const __m128i k128 = LoadFold(kBy128);
  for (; n >= 16; n -= 16, p += 16) {
    x = _mm_xor_si128(Fold(x, k128),
                      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  return UpdateTables(Reduce(x), p, n);
}

#endif  // __PCLMUL__

}  // namespace crc64_internal
}  // namespace distsketch

#endif  // DISTSKETCH_LINALG_CRC64_INTERNAL_H_

// Frobenius constants for the BN254 tower.
//
// With Fp6 = Fp2[v]/(v^3 - xi) and Fp12 = Fp6[w]/(w^2 - v) we have w^6 = xi,
// so w^(p-1) = xi^((p-1)/6) =: g1 (an Fp2 value since 6 | p-1). The table
// holds g_k = xi^(k(p-1)/6) for k = 1..5:
//
//   Frobenius on Fp6:  (b0, b1, b2) -> (conj b0, conj b1 * g2, conj b2 * g4)
//   Frobenius on Fp12: w-part additionally scaled by g1
//   G2 twist Frobenius pi(x, y) = (conj x * g2, conj y * g3)
//
// The entries are literals in Montgomery form (x 2^256 mod p), so the table
// is constant-initialized; tests/curve_constants_test.cpp pins each one to
// xi^(k(p-1)/6).
#pragma once

#include <array>

#include "field/fp2.h"

namespace ibbe::field {

namespace detail {
constexpr Fp2 mont_fp2(bigint::U256 c0, bigint::U256 c1) {
  return {Fp::from_mont_unchecked(c0), Fp::from_mont_unchecked(c1)};
}
}  // namespace detail

/// kFrobeniusGamma[k-1] = xi^(k(p-1)/6), k = 1..5.
inline constexpr std::array<Fp2, 5> kFrobeniusGamma = {
    detail::mont_fp2({{0xaf9ba69633144907ULL, 0xca6b1d7387afb78aULL,
                       0x11bded5ef08a2087ULL, 0x02f34d751a1f3a7cULL}},
                     {{0xa222ae234c492d72ULL, 0xd00f02a4565de15bULL,
                       0xdc2ff3a253dfc926ULL, 0x10a75716b3899551ULL}}),
    detail::mont_fp2({{0xb5773b104563ab30ULL, 0x347f91c8a9aa6454ULL,
                       0x7a007127242e0991ULL, 0x1956bcd8118214ecULL}},
                     {{0x6e849f1ea0aa4757ULL, 0xaa1c7b6d89f89141ULL,
                       0xb6e713cdfae0ca3aULL, 0x26694fbb4e82ebc3ULL}}),
    detail::mont_fp2({{0xe4bbdd0c2936b629ULL, 0xbb30f162e133bacbULL,
                       0x31a9d1b6f9645366ULL, 0x253570bea500f8ddULL}},
                     {{0xa1d77ce45ffe77c7ULL, 0x07affd117826d1dbULL,
                       0x6d16bd27bb7edc6bULL, 0x2c87200285defeccULL}}),
    detail::mont_fp2({{0x7361d77f843abe92ULL, 0xa5bb2bd3273411fbULL,
                       0x9c941f314b3e2399ULL, 0x15df9cddbb9fd3ecULL}},
                     {{0x5dddfd154bd8c949ULL, 0x62cb29a5a4445b60ULL,
                       0x37bc870a0c7dd2b9ULL, 0x24830a9d3171f0fdULL}}),
    detail::mont_fp2({{0xc970692f41690fe7ULL, 0xe240342127694b0bULL,
                       0x32bee66b83c459e8ULL, 0x12aabced0ab08841ULL}},
                     {{0x0d485d2340aebfa9ULL, 0x05193418ab2fcc57ULL,
                       0xd3b0a40b8a4910f5ULL, 0x2f21ebb535d2925aULL}}),
};

}  // namespace ibbe::field

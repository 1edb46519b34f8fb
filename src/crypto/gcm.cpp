#include "crypto/gcm.h"

#include <stdexcept>

namespace ibbe::crypto {

Aes256Gcm::Aes256Gcm(std::span<const std::uint8_t> key) : cipher_(key), h_{} {
  cipher_.encrypt_block(h_);
}

Aes256Gcm::Block Aes256Gcm::gf_mul(const Block& x, const Block& y) const {
  // GF(2^128) multiplication, MSB-first per the GCM spec, on two big-endian
  // 64-bit words. Masks instead of branches: the time taken depends on
  // neither operand.
  auto load = [](const Block& b, std::size_t off) {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < 8; ++i) w = w << 8 | b[off + i];
    return w;
  };
  const std::uint64_t xh = load(x, 0), xl = load(x, 8);
  std::uint64_t vh = load(y, 0), vl = load(y, 8), zh = 0, zl = 0;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t bit = (i < 64 ? xh >> (63 - i) : xl >> (127 - i)) & 1;
    zh ^= vh & (0 - bit);
    zl ^= vl & (0 - bit);
    // v >>= 1, reducing by the GCM polynomial when a bit falls off.
    const std::uint64_t carry = 0 - (vl & 1);
    vl = vl >> 1 | vh << 63;
    vh = vh >> 1 ^ (0xe100000000000000ULL & carry);
  }
  Block z{};
  for (std::size_t i = 0; i < 8; ++i) {
    z[i] = static_cast<std::uint8_t>(zh >> (56 - 8 * i));
    z[8 + i] = static_cast<std::uint8_t>(zl >> (56 - 8 * i));
  }
  return z;
}

Aes256Gcm::Block Aes256Gcm::ghash(std::span<const std::uint8_t> aad,
                                  std::span<const std::uint8_t> ciphertext) const {
  Block y{};
  auto absorb = [&](std::span<const std::uint8_t> data) {
    std::size_t offset = 0;
    while (offset < data.size()) {
      std::size_t take = std::min<std::size_t>(16, data.size() - offset);
      for (std::size_t i = 0; i < take; ++i) y[i] ^= data[offset + i];
      y = gf_mul(y, h_);
      offset += take;
    }
  };
  absorb(aad);
  absorb(ciphertext);
  // Length block: 64-bit bit-lengths of AAD and ciphertext.
  Block len{};
  std::uint64_t aad_bits = static_cast<std::uint64_t>(aad.size()) * 8;
  std::uint64_t ct_bits = static_cast<std::uint64_t>(ciphertext.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    len[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(aad_bits >> (56 - 8 * i));
    len[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(ct_bits >> (56 - 8 * i));
  }
  for (int i = 0; i < 16; ++i) y[static_cast<std::size_t>(i)] ^= len[static_cast<std::size_t>(i)];
  return gf_mul(y, h_);
}

util::Bytes Aes256Gcm::seal(std::span<const std::uint8_t> nonce,
                            std::span<const std::uint8_t> plaintext,
                            std::span<const std::uint8_t> aad) const {
  if (nonce.size() != nonce_size) {
    throw std::invalid_argument("Aes256Gcm: nonce must be 12 bytes");
  }
  util::Bytes out(plaintext.size() + tag_size);
  // CTR encryption starts at counter 2 (counter 1 is reserved for the tag).
  aes256_ctr_xor(cipher_, nonce, 2, plaintext,
                 std::span<std::uint8_t>(out.data(), plaintext.size()));

  Block s = ghash(aad, std::span<const std::uint8_t>(out.data(), plaintext.size()));
  // Tag = E_K(J0) ^ GHASH, with J0 = nonce || 0x00000001.
  Block j0{};
  std::copy(nonce.begin(), nonce.end(), j0.begin());
  j0[15] = 1;
  auto ek_j0 = cipher_.encrypt(j0);
  for (std::size_t i = 0; i < tag_size; ++i) {
    out[plaintext.size() + i] = s[i] ^ ek_j0[i];
  }
  return out;
}

std::optional<util::Bytes> Aes256Gcm::open(std::span<const std::uint8_t> nonce,
                                           std::span<const std::uint8_t> sealed,
                                           std::span<const std::uint8_t> aad) const {
  if (nonce.size() != nonce_size || sealed.size() < tag_size) return std::nullopt;
  std::size_t ct_len = sealed.size() - tag_size;
  auto ciphertext = sealed.first(ct_len);

  Block s = ghash(aad, ciphertext);
  Block j0{};
  std::copy(nonce.begin(), nonce.end(), j0.begin());
  j0[15] = 1;
  auto ek_j0 = cipher_.encrypt(j0);
  std::array<std::uint8_t, tag_size> expected;
  for (std::size_t i = 0; i < tag_size; ++i) expected[i] = s[i] ^ ek_j0[i];

  if (!util::ct_equal(expected, sealed.subspan(ct_len))) return std::nullopt;

  util::Bytes plaintext(ct_len);
  aes256_ctr_xor(cipher_, nonce, 2, ciphertext, plaintext);
  return plaintext;
}

}  // namespace ibbe::crypto

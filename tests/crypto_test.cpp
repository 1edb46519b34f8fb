#include <gtest/gtest.h>

#include <set>
#include <string>

#include "crypto/aes256.h"
#include "crypto/chacha20.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/hex.h"

namespace {

using ibbe::crypto::Aes256;
using ibbe::crypto::Aes256Gcm;
using ibbe::crypto::ChaCha20;
using ibbe::crypto::Drbg;
using ibbe::crypto::Sha256;
using ibbe::util::Bytes;
using ibbe::util::from_hex;
using ibbe::util::to_hex;

std::string digest_hex(const Sha256::Digest& d) { return to_hex(d); }

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlocks) {
  EXPECT_EQ(digest_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly and at odd "
      "block boundaries.";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg));
  }
}

TEST(Sha256, ExactBlockBoundary) {
  std::string block64(64, 'x');
  Sha256 h;
  h.update(block64);
  EXPECT_EQ(h.finish(), Sha256::hash(block64));
}

// ------------------------------------------------------------------ HMAC

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  std::string data = "Hi There";
  auto mac = ibbe::crypto::hmac_sha256(
      key, {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  std::string key = "Jefe";
  std::string data = "what do ya want for nothing?";
  auto mac = ibbe::crypto::hmac_sha256(
      {reinterpret_cast<const std::uint8_t*>(key.data()), key.size()},
      {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3LongKeyBlocks) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  auto mac = ibbe::crypto::hmac_sha256(key, data);
  EXPECT_EQ(to_hex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6KeyLargerThanBlock) {
  Bytes key(131, 0xaa);
  std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  auto mac = ibbe::crypto::hmac_sha256(
      key, {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ------------------------------------------------------------------ HKDF

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  auto prk = ibbe::crypto::hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  auto okm = ibbe::crypto::hkdf_expand(
      prk, std::string_view(reinterpret_cast<const char*>(info.data()), info.size()),
      42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, EmptySaltUsesZeros) {
  Bytes ikm(22, 0x0b);
  auto okm = ibbe::crypto::hkdf({}, ikm, "", 42);
  // RFC 5869 test case 3.
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, RejectsOversizedOutput) {
  Bytes prk(32, 1);
  EXPECT_THROW(ibbe::crypto::hkdf_expand(prk, "", 255 * 32 + 1),
               std::invalid_argument);
}

// ----------------------------------------------------------------- AES-256

TEST(Aes256, Fips197Example) {
  auto key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Aes256 cipher(key);
  Aes256::Block block;
  auto pt = from_hex("00112233445566778899aabbccddeeff");
  std::copy(pt.begin(), pt.end(), block.begin());
  cipher.encrypt_block(block);
  EXPECT_EQ(to_hex(block), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes256, NistSp800_38aEcbVectors) {
  auto key = from_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Aes256 cipher(key);
  const char* pts[] = {"6bc1bee22e409f96e93d7e117393172a",
                       "ae2d8a571e03ac9c9eb76fac45af8e51",
                       "30c81c46a35ce411e5fbc1191a0a52ef",
                       "f69f2445df4f9b17ad2b417be66c3710"};
  const char* cts[] = {"f3eed1bdb5d2a03c064b5a7e3db181f8",
                       "591ccb10d410ed26dc5ba74a31362870",
                       "b6ed21b99ca6f4f9f153e7b1beafed1d",
                       "23304b7a39f9f3ff067d8d8f9e24ecc7"};
  for (int i = 0; i < 4; ++i) {
    Aes256::Block block;
    auto pt = from_hex(pts[i]);
    std::copy(pt.begin(), pt.end(), block.begin());
    cipher.encrypt_block(block);
    EXPECT_EQ(to_hex(block), cts[i]) << "vector " << i;
  }
}

TEST(Aes256, RejectsBadKeySize) {
  Bytes short_key(16, 0);
  EXPECT_THROW(Aes256 cipher(short_key), std::invalid_argument);
}

TEST(Aes256Ctr, XorTwiceIsIdentity) {
  Bytes key(32, 7);
  Aes256 cipher(key);
  Bytes iv(12, 3);
  Bytes msg(100);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  Bytes ct(msg.size()), back(msg.size());
  ibbe::crypto::aes256_ctr_xor(cipher, iv, 2, msg, ct);
  EXPECT_NE(ct, msg);
  ibbe::crypto::aes256_ctr_xor(cipher, iv, 2, ct, back);
  EXPECT_EQ(back, msg);
}

// ------------------------------------------------------------------- GCM

TEST(Aes256Gcm, NistCase13EmptyEverything) {
  Bytes key(32, 0);
  Aes256Gcm gcm(key);
  Bytes nonce(12, 0);
  auto sealed = gcm.seal(nonce, {});
  EXPECT_EQ(to_hex(sealed), "530f8afbc74536b9a963b4f1c4cb738b");
}

TEST(Aes256Gcm, NistCase14SingleZeroBlock) {
  Bytes key(32, 0);
  Aes256Gcm gcm(key);
  Bytes nonce(12, 0);
  Bytes pt(16, 0);
  auto sealed = gcm.seal(nonce, pt);
  EXPECT_EQ(to_hex(sealed),
            "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919");
}

TEST(Aes256Gcm, NistCase15FourBlocks) {
  auto key = from_hex(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  Aes256Gcm gcm(key);
  auto nonce = from_hex("cafebabefacedbaddecaf888");
  auto pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  auto sealed = gcm.seal(nonce, pt);
  EXPECT_EQ(to_hex(sealed),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
            "b094dac5d93471bdec1a502270e3cc6c");
}

TEST(Aes256Gcm, SealOpenRoundTripWithAad) {
  Bytes key(32, 0x42);
  Aes256Gcm gcm(key);
  Bytes nonce(12, 0x24);
  Bytes pt = {'s', 'e', 'c', 'r', 'e', 't'};
  Bytes aad = {'h', 'd', 'r'};
  auto sealed = gcm.seal(nonce, pt, aad);
  auto opened = gcm.open(nonce, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(Aes256Gcm, TamperedCiphertextFailsOpen) {
  Bytes key(32, 0x42);
  Aes256Gcm gcm(key);
  Bytes nonce(12, 0x24);
  Bytes pt(40, 0x11);
  auto sealed = gcm.seal(nonce, pt);
  sealed[5] ^= 1;
  EXPECT_FALSE(gcm.open(nonce, sealed).has_value());
}

TEST(Aes256Gcm, TamperedTagFailsOpen) {
  Bytes key(32, 0x42);
  Aes256Gcm gcm(key);
  Bytes nonce(12, 0x24);
  Bytes pt(40, 0x11);
  auto sealed = gcm.seal(nonce, pt);
  sealed.back() ^= 1;
  EXPECT_FALSE(gcm.open(nonce, sealed).has_value());
}

TEST(Aes256Gcm, WrongAadFailsOpen) {
  Bytes key(32, 0x42);
  Aes256Gcm gcm(key);
  Bytes nonce(12, 0x24);
  Bytes pt(5, 0x11);
  Bytes aad = {1, 2, 3};
  auto sealed = gcm.seal(nonce, pt, aad);
  Bytes other_aad = {1, 2, 4};
  EXPECT_FALSE(gcm.open(nonce, sealed, other_aad).has_value());
  EXPECT_TRUE(gcm.open(nonce, sealed, aad).has_value());
}

TEST(Aes256Gcm, WrongNonceFailsOpen) {
  Bytes key(32, 0x42);
  Aes256Gcm gcm(key);
  Bytes nonce(12, 0x24), other(12, 0x25);
  auto sealed = gcm.seal(nonce, Bytes(8, 1));
  EXPECT_FALSE(gcm.open(other, sealed).has_value());
}

TEST(Aes256Gcm, TruncatedInputFailsOpen) {
  Bytes key(32, 0x42);
  Aes256Gcm gcm(key);
  Bytes nonce(12, 0);
  EXPECT_FALSE(gcm.open(nonce, Bytes(10, 0)).has_value());
}

TEST(Aes256Gcm, NistCase16WithAadAndPartialBlock) {
  auto key = from_hex(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  Aes256Gcm gcm(key);
  auto nonce = from_hex("cafebabefacedbaddecaf888");
  auto pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  auto aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  auto sealed = gcm.seal(nonce, pt, aad);
  EXPECT_EQ(to_hex(sealed),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
            "76fc6ece0f4e1768cddf8853bb2d551b");
}

/// GHASH over the spec's bit-at-a-time GF(2^128) multiply, one byte at a
/// time (the oracle for the library's word-wise multiply).
Aes256::Block reference_ghash(const Aes256::Block& h, const Bytes& aad,
                              const Bytes& ct) {
  auto mul = [](const Aes256::Block& x, const Aes256::Block& y) {
    Aes256::Block z{}, v = y;
    for (int i = 0; i < 128; ++i) {
      if ((x[static_cast<std::size_t>(i / 8)] >> (7 - i % 8)) & 1) {
        for (std::size_t j = 0; j < 16; ++j) z[j] ^= v[j];
      }
      const bool lsb = v[15] & 1;
      for (std::size_t j = 15; j > 0; --j) {
        v[j] = static_cast<std::uint8_t>(v[j] >> 1 | v[j - 1] << 7);
      }
      v[0] >>= 1;
      if (lsb) v[0] ^= 0xe1;
    }
    return z;
  };
  Aes256::Block y{};
  for (const Bytes* data : {&aad, &ct}) {
    for (std::size_t off = 0; off < data->size(); off += 16) {
      for (std::size_t i = 0; i < 16 && off + i < data->size(); ++i) {
        y[i] ^= (*data)[off + i];
      }
      y = mul(y, h);
    }
  }
  const std::uint64_t bits[2] = {aad.size() * 8, ct.size() * 8};
  for (std::size_t i = 0; i < 16; ++i) {
    y[i] ^= static_cast<std::uint8_t>(bits[i / 8] >> (56 - 8 * (i % 8)));
  }
  return mul(y, h);
}

TEST(Aes256Gcm, TagMatchesBitSerialGhashOnRandomLengths) {
  Drbg rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes key = rng.bytes(32), nonce = rng.bytes(12);
    const Bytes pt = rng.bytes(rng.uniform(100));
    const Bytes aad = rng.bytes(rng.uniform(40));
    const Aes256 cipher(key);
    const Aes256Gcm gcm(key);
    const Bytes sealed = gcm.seal(nonce, pt, aad);
    const Bytes ct(sealed.begin(),
                   sealed.begin() + static_cast<std::ptrdiff_t>(pt.size()));
    auto tag = reference_ghash(cipher.encrypt(Aes256::Block{}), aad, ct);
    Aes256::Block j0{};
    std::copy(nonce.begin(), nonce.end(), j0.begin());
    j0[15] = 1;
    const auto ek_j0 = cipher.encrypt(j0);
    for (std::size_t i = 0; i < 16; ++i) tag[i] ^= ek_j0[i];
    EXPECT_EQ(Bytes(sealed.end() - 16, sealed.end()), Bytes(tag.begin(), tag.end()))
        << "pt " << pt.size() << " aad " << aad.size();
  }
}

// --------------------------------------------------------------- ChaCha20

TEST(ChaCha20, Rfc8439KeystreamBlock) {
  auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = from_hex("000000090000004a00000000");
  ChaCha20 stream(key, nonce, 1);
  Bytes block(64);
  stream.next_block(block);
  EXPECT_EQ(to_hex(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, CounterAdvances) {
  Bytes key(32, 1), nonce(12, 2);
  ChaCha20 stream(key, nonce);
  Bytes b1(64), b2(64);
  stream.next_block(b1);
  stream.next_block(b2);
  EXPECT_NE(b1, b2);
}

// ------------------------------------------------------------------ DRBG

TEST(Drbg, DeterministicWithSeed) {
  Drbg a(1234), b(1234), c(1235);
  auto x = a.bytes(48);
  EXPECT_EQ(x, b.bytes(48));
  EXPECT_NE(x, c.bytes(48));
}

TEST(Drbg, OsSeededInstancesDiffer) {
  Drbg a, b;
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, UniformStaysInBound) {
  Drbg rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.uniform(17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // every residue hit over 2000 draws
  EXPECT_THROW((void)rng.uniform(0), std::invalid_argument);
}

TEST(Drbg, FillCrossesBlockBoundaries) {
  Drbg a(7);
  Bytes one_shot = a.bytes(200);
  Drbg b(7);
  Bytes pieces;
  for (std::size_t n : {1u, 63u, 64u, 65u, 7u}) {
    auto chunk = b.bytes(n);
    pieces.insert(pieces.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(pieces.size(), 200u);
  EXPECT_EQ(pieces, one_shot);
}

}  // namespace

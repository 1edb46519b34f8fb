#include "ec/curves.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/sha256.h"
#include "ec/glv.h"

namespace ibbe::ec {

using field::Fp;
using field::Fp2;
using field::P256Fp;

// ----------------------------------------------------------------- G1 params

const Fp& G1Params::a() {
  static const Fp v = Fp::zero();
  return v;
}
const Fp& G1Params::b() {
  static const Fp v = Fp::from_u64(3);
  return v;
}
const Fp& G1Params::gen_x() {
  static const Fp v = Fp::from_u64(1);
  return v;
}
const Fp& G1Params::gen_y() {
  static const Fp v = Fp::from_u64(2);
  return v;
}

// ----------------------------------------------------------------- G2 params

const Fp2& G2Params::a() {
  static const Fp2 v = Fp2::zero();
  return v;
}
const Fp2& G2Params::b() {
  // 3 / xi — the D-type sextic twist coefficient.
  static const Fp2 v = Fp2::from_fp(Fp::from_u64(3)) * Fp2::xi().inverse();
  return v;
}
const Fp2& G2Params::gen_x() {
  // Standard alt_bn128 G2 generator (EIP-197 ordering: c0 = real part).
  static const Fp2 v(
      Fp::from_hex("1800deef121f1e76426a00665e5c4479674322d4f75edadd46debd5cd992f6ed"),
      Fp::from_hex("198e9393920d483a7260bfb731fb5d25f1aa493335a9e71297e485b7aef312c2"));
  return v;
}
const Fp2& G2Params::gen_y() {
  static const Fp2 v(
      Fp::from_hex("12c85ea5db8c6deb4aab71808dcb408fe3d1e7690c43d37b4ce6cc0166fa7daa"),
      Fp::from_hex("090689d0585ff075ec9e99ad690c3395bc4b313370b38ef355acdadcd122975b"));
  return v;
}

// --------------------------------------------------------------- P256 params

const P256Fp& P256Params::a() {
  static const P256Fp v = P256Fp::from_u64(3).neg();
  return v;
}
const P256Fp& P256Params::b() {
  static const P256Fp v = P256Fp::from_hex(
      "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
  return v;
}
const P256Fp& P256Params::gen_x() {
  static const P256Fp v = P256Fp::from_hex(
      "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
  return v;
}
const P256Fp& P256Params::gen_y() {
  static const P256Fp v = P256Fp::from_hex(
      "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
  return v;
}

// ------------------------------------------------------------- serialization

namespace {

// Big-endian x coordinate: one 32-byte limb for Fp-like fields, c0 || c1
// for Fp2.
template <typename Field>
void put_x(const Field& x, std::uint8_t* out) {
  auto be = x.to_be_bytes();
  std::copy(be.begin(), be.end(), out);
}
void put_x(const Fp2& x, std::uint8_t* out) {
  put_x(x.c0(), out);
  put_x(x.c1(), out + 32);
}

// The one compressed encoder: flag || x, or all zeros for infinity.
template <typename Field>
void encode_affine(const AffinePt<Field>& p, std::span<std::uint8_t> out,
                   std::size_t size) {
  if (out.size() != size) {
    throw std::invalid_argument("point encoding: wrong output size");
  }
  std::fill(out.begin(), out.end(), 0);
  if (p.inf) return;
  out[0] = p.y.is_odd() ? 0x03 : 0x02;
  put_x(p.x, out.data() + 1);
}

// Jacobian encoders: one to_affine (a field inversion), then the shared
// encoder.
template <typename Point>
util::Bytes compress(const Point& p, std::size_t size) {
  AffinePt<typename Point::Field> a;
  if (auto xy = p.to_affine()) a = {xy->first, xy->second, false};
  util::Bytes out(size);
  encode_affine(a, out, size);
  return out;
}

// Parses an untrusted 32-byte field coordinate; rejects unreduced values
// with DeserializeError (the deserializers' contract) rather than the field
// layer's invalid_argument.
template <typename Field>
Field parse_coordinate(std::span<const std::uint8_t> b32, const char* what) {
  bigint::U256 raw = bigint::U256::from_be_bytes(b32);
  if (bigint::cmp(raw, Field::modulus()) >= 0) {
    throw util::DeserializeError(std::string(what) + ": coordinate not in field");
  }
  return Field::from_u256(raw);
}

template <typename Point, typename Params>
Point decompress_fp_point(std::span<const std::uint8_t> data, const char* what) {
  using Field = typename Params::Field;
  if (data.size() != 33) throw util::DeserializeError(std::string(what) + ": bad length");
  std::uint8_t flag = data[0];
  if (flag == 0x00) return Point::infinity();
  if (flag != 0x02 && flag != 0x03) {
    throw util::DeserializeError(std::string(what) + ": bad flag");
  }
  Field x = parse_coordinate<Field>(data.subspan(1), what);
  Field rhs = x * x.square() + Params::b();
  if (!Params::a_is_zero()) rhs += Params::a() * x;
  auto y = rhs.sqrt();
  if (!y) throw util::DeserializeError(std::string(what) + ": x not on curve");
  Field y_final = (y->is_odd() == (flag == 0x03)) ? *y : y->neg();
  return Point::from_affine(x, y_final);
}

}  // namespace

util::Bytes g1_to_bytes(const G1& p) { return compress(p, g1_serialized_size); }

void g1_affine_to_bytes(const AffinePt<Fp>& p, std::span<std::uint8_t> out) {
  encode_affine(p, out, g1_serialized_size);
}

G1 g1_from_bytes(std::span<const std::uint8_t> data) {
  // BN254 G1 has prime order r (cofactor 1): on-curve implies in-subgroup.
  return decompress_fp_point<G1, G1Params>(data, "G1");
}

util::Bytes p256_to_bytes(const P256Point& p) {
  return compress(p, p256_serialized_size);
}

P256Point p256_from_bytes(std::span<const std::uint8_t> data) {
  // P-256 also has cofactor 1.
  return decompress_fp_point<P256Point, P256Params>(data, "P256");
}

util::Bytes g2_to_bytes(const G2& p) { return compress(p, g2_serialized_size); }

void g2_affine_to_bytes(const AffinePt<Fp2>& p, std::span<std::uint8_t> out) {
  encode_affine(p, out, g2_serialized_size);
}

G2 g2_from_bytes(std::span<const std::uint8_t> data, bool subgroup_check) {
  if (data.size() != g2_serialized_size) {
    throw util::DeserializeError("G2: bad length");
  }
  std::uint8_t flag = data[0];
  if (flag == 0x00) return G2::infinity();
  if (flag != 0x02 && flag != 0x03) throw util::DeserializeError("G2: bad flag");
  Fp2 x(parse_coordinate<Fp>(data.subspan(1, 32), "G2"),
        parse_coordinate<Fp>(data.subspan(33, 32), "G2"));
  Fp2 rhs = x * x.square() + G2Params::b();
  auto y = rhs.sqrt();
  if (!y) throw util::DeserializeError("G2: x not on curve");
  Fp2 y_final = (y->is_odd() == (flag == 0x03)) ? *y : y->neg();
  G2 point = G2::from_affine(x, y_final);
  if (subgroup_check && !g2_in_subgroup(point)) {
    throw util::DeserializeError("G2: point not in the order-r subgroup");
  }
  return point;
}

// ------------------------------------------------------------- hash-to-curve

G1 hash_to_g1(std::string_view msg) {
  for (std::uint32_t counter = 0; counter < 256; ++counter) {
    crypto::Sha256 h;
    h.update("ibbe-sgx:h2c:g1:");
    h.update(msg);
    std::array<std::uint8_t, 4> ctr_bytes = {
        static_cast<std::uint8_t>(counter >> 24), static_cast<std::uint8_t>(counter >> 16),
        static_cast<std::uint8_t>(counter >> 8), static_cast<std::uint8_t>(counter)};
    h.update(ctr_bytes);
    auto digest = h.finish();
    Fp x = Fp::from_be_bytes_reduce(digest);
    Fp rhs = x * x.square() + G1Params::b();
    if (auto y = rhs.sqrt()) {
      // Deterministic sign choice from the digest keeps the map stable.
      Fp y_final = ((digest[0] & 1) == (y->is_odd() ? 1 : 0)) ? *y : y->neg();
      return G1::from_affine(x, y_final);
    }
  }
  // Each try succeeds with probability ~1/2; reaching here is impossible in
  // practice (2^-256).
  throw std::logic_error("hash_to_g1: no curve point found");
}

}  // namespace ibbe::ec

// Robustness sweep over every wire format in the system: valid encodings
// survive a round trip; truncated, bit-flipped and random inputs must either
// parse to *something* or throw DeserializeError — never crash, hang, or
// throw anything else. (This is what "parse untrusted cloud bytes" means for
// the clients and the re-syncing administrators.)
#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "enclave/ibbe_enclave.h"
#include "ibbe/ibbe.h"
#include "pki/cert.h"
#include "sgx/enclave.h"
#include "system/metadata.h"
#include "system/oplog.h"
#include "test_util.h"

namespace {

using ibbe::util::Bytes;
using ibbe::util::DeserializeError;

struct Format {
  const char* name;
  Bytes valid;  // a syntactically valid encoding of this format
  std::function<void(std::span<const std::uint8_t>)> parse;
};

/// Builds one valid specimen of every format plus its parser.
std::vector<Format> all_formats() {
  std::vector<Format> formats;

  ibbe::crypto::Drbg rng(2718);
  auto keys = ibbe::core::setup(4, rng);
  std::vector<ibbe::core::Identity> users = {"a", "b", "c"};
  auto enc = ibbe::core::encrypt_with_msk(keys.msk, keys.pk, users, rng);
  auto usk = ibbe::core::extract_user_key(keys.msk, "a");

  formats.push_back({"PublicKey", keys.pk.to_bytes(), [](auto d) {
                       (void)ibbe::core::PublicKey::from_bytes(d);
                     }});
  formats.push_back({"UserSecretKey", usk.to_bytes(), [](auto d) {
                       (void)ibbe::core::UserSecretKey::from_bytes(d);
                     }});
  formats.push_back({"BroadcastCiphertext", enc.ct.to_bytes(), [](auto d) {
                       (void)ibbe::core::BroadcastCiphertext::from_bytes(d);
                     }});
  formats.push_back({"G1", ibbe::ec::g1_to_bytes(keys.msk.g), [](auto d) {
                       (void)ibbe::ec::g1_from_bytes(d);
                     }});
  formats.push_back({"G2", ibbe::ec::g2_to_bytes(keys.pk.h()), [](auto d) {
                       (void)ibbe::ec::g2_from_bytes(d);
                     }});

  // SGX formats.
  ibbe::sgx::EnclavePlatform platform("fuzz-box");
  ibbe::enclave::IbbeEnclave enclave(platform, 4);
  auto group = enclave.ecall_create_group(std::vector<std::uint64_t>{1}, {{users}});
  formats.push_back({"SealedBlob", group.sealed_gk.to_bytes(), [](auto d) {
                       (void)ibbe::sgx::SealedBlob::from_bytes(d);
                     }});
  formats.push_back({"Quote", enclave.attestation_quote().to_bytes(),
                     [](auto d) { (void)ibbe::sgx::Quote::from_bytes(d); }});
  formats.push_back(
      {"PartitionCiphertext", group.partitions[0].to_bytes(), [](auto d) {
         (void)ibbe::enclave::PartitionCiphertext::from_bytes(d);
       }});

  // PKI formats.
  auto admin_key = ibbe::pki::EcdsaKeyPair::generate(rng);
  ibbe::pki::CertificateAuthority ca("fuzz-ca", rng);
  auto cert = ca.issue("subject", admin_key.public_key_bytes(), Bytes(32, 1));
  formats.push_back({"Certificate", cert.to_bytes(), [](auto d) {
                       (void)ibbe::pki::Certificate::from_bytes(d);
                     }});
  formats.push_back({"EcdsaSignature", admin_key.sign("x").to_bytes(),
                     [](auto d) { (void)ibbe::pki::EcdsaSignature::from_bytes(d); }});

  // System metadata formats (sharded manifest layout).
  ibbe::system::GroupManifest manifest;
  manifest.shards = {{7, {}}, {9, {}}};
  manifest.cipher_set = 11;
  manifest.overlays = {{3, 12}};
  manifest.gk_epoch = 2;
  manifest.delta_base = 5;
  formats.push_back({"GroupManifest", manifest.to_bytes(), [](auto d) {
                       (void)ibbe::system::GroupManifest::from_bytes(d);
                     }});
  ibbe::system::IndexShard shard;
  shard.sid = 7;
  shard.partitions = {{3, users}, {4, {"d"}}};
  formats.push_back({"IndexShard", shard.to_bytes(), [](auto d) {
                       (void)ibbe::system::IndexShard::from_bytes(d);
                     }});
  ibbe::system::CipherBundle bundle;
  bundle.gk_epoch = 2;
  bundle.entries = {{3, group.partitions[0]}};
  formats.push_back({"CipherBundle", bundle.to_bytes(), [](auto d) {
                       (void)ibbe::system::CipherBundle::from_bytes(d);
                     }});
  ibbe::system::CipherOverlay overlay;
  overlay.pid = 3;
  overlay.gk_epoch = 2;
  overlay.cipher = group.partitions[0];
  formats.push_back({"CipherOverlay", overlay.to_bytes(), [](auto d) {
                       (void)ibbe::system::CipherOverlay::from_bytes(d);
                     }});
  ibbe::system::IndexDelta delta;
  delta.seq = 6;
  delta.prev_delta_hash.fill(0x5a);
  ibbe::system::DeltaOp add;
  add.kind = ibbe::system::DeltaOp::Kind::add_member;
  add.user = "d";
  add.pid = 3;
  ibbe::system::DeltaOp repart;
  repart.kind = ibbe::system::DeltaOp::Kind::repartition;
  repart.dropped = {3, 4};
  repart.created = {{5, users}};
  delta.ops = {add, repart};
  formats.push_back({"IndexDelta", delta.to_bytes(), [](auto d) {
                       (void)ibbe::system::IndexDelta::from_bytes(d);
                     }});
  auto env = ibbe::system::SignedEnvelope::sign(admin_key, Bytes(40, 9));
  formats.push_back({"SignedEnvelope", env.to_bytes(), [](auto d) {
                       (void)ibbe::system::SignedEnvelope::from_bytes(d);
                     }});
  ibbe::system::MembershipLog log;
  log.append(ibbe::system::LogOp::create_group, "m=3", "admin", admin_key);
  log.append(ibbe::system::LogOp::add_user, "d", "admin", admin_key);
  formats.push_back({"MembershipLog", log.to_bytes(), [](auto d) {
                       (void)ibbe::system::MembershipLog::from_bytes(d);
                     }});
  return formats;
}

/// Runs the parser and fails the test on anything but success or
/// DeserializeError (std::bad_alloc from a hostile length prefix counts as a
/// failure: parsers must validate lengths before allocating).
void expect_graceful(const Format& format, std::span<const std::uint8_t> data) {
  try {
    format.parse(data);
  } catch (const DeserializeError&) {
    // expected rejection
  } catch (const std::exception& e) {
    FAIL() << format.name << ": wrong exception type: " << e.what();
  }
}

TEST(FuzzDeserialize, ValidEncodingsParse) {
  for (const auto& format : all_formats()) {
    EXPECT_NO_THROW(format.parse(format.valid)) << format.name;
  }
}

TEST(FuzzDeserialize, AllTruncationsAreGraceful) {
  for (const auto& format : all_formats()) {
    // Every prefix, and for large formats a stride to keep runtime sane.
    std::size_t stride = format.valid.size() > 512 ? 7 : 1;
    for (std::size_t len = 0; len < format.valid.size(); len += stride) {
      expect_graceful(format,
                      std::span<const std::uint8_t>(format.valid.data(), len));
    }
  }
}

TEST(FuzzDeserialize, BitFlipsAreGraceful) {
  std::mt19937_64 rng(99);
  for (const auto& format : all_formats()) {
    for (int trial = 0; trial < 64; ++trial) {
      Bytes mutated = format.valid;
      std::size_t pos = rng() % mutated.size();
      mutated[pos] ^= static_cast<std::uint8_t>(1 << (rng() % 8));
      expect_graceful(format, mutated);
    }
  }
}

TEST(FuzzDeserialize, RandomGarbageIsGraceful) {
  std::mt19937_64 rng(7);
  for (const auto& format : all_formats()) {
    for (int trial = 0; trial < 32; ++trial) {
      Bytes garbage(format.valid.size());
      for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
      expect_graceful(format, garbage);
    }
    // And garbage of random lengths.
    for (int trial = 0; trial < 16; ++trial) {
      Bytes garbage(rng() % 200);
      for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
      expect_graceful(format, garbage);
    }
  }
}

// Allocation-bomb resistance: a hostile count field claiming ~4 billion
// elements in a tiny buffer must fail the remaining-bytes clamp
// (ByteReader::count) BEFORE any reserve/allocation happens — a
// DeserializeError, never std::bad_alloc or an OOM kill.
TEST(FuzzDeserialize, HostileCountFieldsDoNotAllocate) {
  auto bomb = [](std::initializer_list<std::uint8_t> bytes) {
    return Bytes(bytes);
  };
  // GroupManifest: shard count 0xFFFFFFFF, then nothing.
  Bytes manifest_bomb = bomb({0xff, 0xff, 0xff, 0xff});
  EXPECT_THROW(ibbe::system::GroupManifest::from_bytes(manifest_bomb),
               DeserializeError);
  // IndexShard: sid, then partition count 0xFFFFFFFF.
  Bytes shard_bomb = bomb({0, 0, 0, 0, 0, 0, 0, 7, 0xff, 0xff, 0xff, 0xff});
  EXPECT_THROW(ibbe::system::IndexShard::from_bytes(shard_bomb),
               DeserializeError);
  // IndexShard: one partition whose MEMBER count is the bomb.
  Bytes member_bomb = bomb({0, 0, 0, 0, 0, 0, 0, 7,   // sid
                            0, 0, 0, 1,               // 1 partition
                            0, 0, 0, 0, 0, 0, 0, 3,   // pid
                            0xff, 0xff, 0xff, 0xff}); // member count
  EXPECT_THROW(ibbe::system::IndexShard::from_bytes(member_bomb),
               DeserializeError);
  // CipherBundle: gk_epoch, then entry count 0xFFFFFFFF.
  Bytes bundle_bomb = bomb({0, 0, 0, 0, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff});
  EXPECT_THROW(ibbe::system::CipherBundle::from_bytes(bundle_bomb),
               DeserializeError);
  // IndexDelta: header (seq + three hashes), then op count 0xFFFFFFFF.
  Bytes delta_bomb(8 + 32 + 32 + 32, 0);
  delta_bomb.insert(delta_bomb.end(), {0xff, 0xff, 0xff, 0xff});
  EXPECT_THROW(ibbe::system::IndexDelta::from_bytes(delta_bomb),
               DeserializeError);
  // IndexDelta: one repartition op whose dropped-pid count is the bomb.
  Bytes repart_bomb(8 + 32 + 32 + 32, 0);
  repart_bomb.insert(repart_bomb.end(), {0, 0, 0, 1});  // 1 op
  repart_bomb.push_back(3);                             // kind: repartition
  repart_bomb.insert(repart_bomb.end(), {0xff, 0xff, 0xff, 0xff});
  EXPECT_THROW(ibbe::system::IndexDelta::from_bytes(repart_bomb),
               DeserializeError);
}

// The metadata reader stands between untrusted cloud bytes and both the
// clients and the re-syncing administrators: every truncation or bit flip of
// a signed object must come back as a non-ok verdict, never as an exception.
TEST(FuzzDeserialize, ReaderRejectsMutatedObjectsWithoutThrowing) {
  using ibbe::system::ReadVerdict;
  ibbe::crypto::Drbg rng(31);
  auto key = ibbe::pki::EcdsaKeyPair::generate(rng);
  ibbe::system::MetadataReader reader({key.public_key()});
  ibbe::sgx::EnclavePlatform platform("fuzz-reader");
  ibbe::enclave::IbbeEnclave enclave(platform, 4);
  const std::vector<ibbe::core::Identity> members = {"a", "b"};
  auto cipher =
      enclave.ecall_create_group(std::vector<std::uint64_t>{1}, {{members}})
          .partitions[0];

  ibbe::system::GroupManifest manifest;
  manifest.gk_epoch = 2;
  manifest.overlays = {{3, 12}};
  ibbe::system::IndexShard shard;
  shard.sid = 7;
  shard.partitions = {{3, members}};
  const Bytes shard_bytes = ibbe::system::sign_record(key, shard);
  const ibbe::system::ShardRef ref{7, ibbe::system::content_hash(shard_bytes)};
  ibbe::system::CipherBundle bundle;
  bundle.gk_epoch = 2;
  bundle.entries = {{3, cipher}};
  ibbe::system::CipherOverlay overlay{3, 2, cipher};

  using Read = std::function<ReadVerdict(const std::optional<Bytes>&)>;
  const std::vector<std::pair<Bytes, Read>> objects = {
      {ibbe::system::sign_record(key, manifest),
       [&](const auto& b) { return reader.manifest(b, "g", nullptr).verdict; }},
      {shard_bytes,
       [&](const auto& b) { return reader.shard(b, ref).verdict; }},
      {ibbe::system::sign_record(key, bundle),
       [&](const auto& b) { return reader.bundle(b, manifest).verdict; }},
      {ibbe::system::sign_record(key, overlay),
       [&](const auto& b) { return reader.overlay(b, manifest, 3).verdict; }},
  };
  std::mt19937_64 flips(5);
  for (const auto& [valid, read] : objects) {
    EXPECT_EQ(read(valid), ReadVerdict::ok);
    EXPECT_EQ(read(std::nullopt), ReadVerdict::absent);
    std::vector<Bytes> mutants;
    for (std::size_t len = 0; len < valid.size(); len += 7) {
      mutants.emplace_back(valid.begin(),
                           valid.begin() + static_cast<std::ptrdiff_t>(len));
    }
    for (int trial = 0; trial < 64; ++trial) {
      Bytes mutated = valid;
      mutated[flips() % mutated.size()] ^=
          static_cast<std::uint8_t>(1 << (flips() % 8));
      mutants.push_back(std::move(mutated));
    }
    for (const auto& mutant : mutants) {
      ReadVerdict verdict = ReadVerdict::ok;
      EXPECT_NO_THROW(verdict = read(mutant));
      EXPECT_NE(verdict, ReadVerdict::ok);
    }
  }
}

// bundle_entry decodes one entry and skips the others by length; wherever
// CipherBundle::from_bytes parses a bundle, the two must agree on every pid.
// The bundles are signed, so the framing walk itself sees the input.
namespace bundle_entry {

using ibbe::enclave::PartitionCiphertext;
using ibbe::system::CipherBundle;
using ibbe::system::MetadataReader;
using ibbe::system::PartitionId;
using ibbe::system::ReadVerdict;

struct Fixture {
  Fixture() : rng(61), key(ibbe::pki::EcdsaKeyPair::generate(rng)) {
    ibbe::sgx::EnclavePlatform platform("fuzz-bundle");
    ibbe::enclave::IbbeEnclave enclave(platform, 4);
    const std::vector<std::vector<ibbe::core::Identity>> partitions = {
        {"a", "b"}, {"c"}, {"d", "e", "f"}};
    pool = enclave.ecall_create_group(std::vector<std::uint64_t>{1, 2, 3},
                                      partitions)
               .partitions;
  }

  Bytes sign(std::span<const std::uint8_t> payload) const {
    return ibbe::system::SignedEnvelope::sign(key, Bytes(payload.begin(),
                                                         payload.end()))
        .to_bytes();
  }

  ibbe::crypto::Drbg rng;
  ibbe::pki::EcdsaKeyPair key;
  std::vector<PartitionCiphertext> pool;
};

/// bundle_entry on `payload` (signed) for every pid below `pids`, checked
/// against from_bytes(payload).find(pid) whenever from_bytes parses
/// `payload`. Returns the verdicts; never lets an exception out.
std::vector<ReadVerdict> check_against_full_parse(
    const Fixture& f, const Bytes& payload,
    const ibbe::system::GroupManifest& m, PartitionId pids) {
  const MetadataReader reader({f.key.public_key()});
  const Bytes stored = f.sign(payload);
  std::optional<CipherBundle> full;
  try {
    full = CipherBundle::from_bytes(payload);
  } catch (const DeserializeError&) {
    // a skipped entry may be malformed: bundle_entry need not reject it
  }
  std::vector<ReadVerdict> verdicts;
  for (PartitionId pid = 0; pid < pids; ++pid) {
    ibbe::system::Verified<PartitionCiphertext> read;
    EXPECT_NO_THROW(read = reader.bundle_entry(stored, m, pid));
    verdicts.push_back(read.verdict);
    if (!full) continue;
    if (full->gk_epoch != m.gk_epoch) {
      EXPECT_EQ(read.verdict, ReadVerdict::stale);
    } else if (const auto* want = full->find(pid)) {
      EXPECT_EQ(read.verdict, ReadVerdict::ok);
      if (read.ok()) {
        EXPECT_EQ(read.record.to_bytes(), want->to_bytes());
      }
    } else {
      EXPECT_EQ(read.verdict, ReadVerdict::absent);
    }
  }
  return verdicts;
}

TEST(BundleEntry, MatchesFullParseOnRandomBundles) {
  Fixture f;
  std::mt19937_64 rng(43);
  for (std::size_t size : {0, 1, 2, 7, 16}) {
    for (int trial = 0; trial < 4; ++trial) {
      CipherBundle bundle;
      bundle.gk_epoch = rng() % 3;
      for (std::size_t i = 0; i < size; ++i) {
        auto cipher = f.pool[rng() % f.pool.size()];
        cipher.wrapped_gk.resize(rng() % 64);
        for (auto& b : cipher.wrapped_gk) b = static_cast<std::uint8_t>(rng());
        // Small pid range: repeated pids occur, and find's first match wins.
        bundle.entries.emplace_back(rng() % (2 * size + 1), std::move(cipher));
      }
      ibbe::system::GroupManifest m;
      m.gk_epoch = trial == 3 ? bundle.gk_epoch + 1 : bundle.gk_epoch;
      // Every pid that occurs, plus ones that do not.
      check_against_full_parse(f, bundle.to_bytes(), m, 2 * size + 3);
    }
  }
}

TEST(BundleEntry, HostileBundlesNeverThrow) {
  Fixture f;
  CipherBundle bundle;
  bundle.gk_epoch = 2;
  for (PartitionId pid = 0; pid < 3; ++pid) {
    bundle.entries.emplace_back(pid, f.pool[pid]);
  }
  ibbe::system::GroupManifest m;
  m.gk_epoch = 2;
  const Bytes valid = bundle.to_bytes();
  ASSERT_EQ(check_against_full_parse(f, valid, m, 4),
            (std::vector<ReadVerdict>{ReadVerdict::ok, ReadVerdict::ok,
                                      ReadVerdict::ok, ReadVerdict::absent}));

  // Truncations: the framing walk reaches the end of the input early.
  for (std::size_t len = 0; len < valid.size(); len += 5) {
    const Bytes cut(valid.begin(),
                    valid.begin() + static_cast<std::ptrdiff_t>(len));
    for (auto verdict : check_against_full_parse(f, cut, m, 4)) {
      EXPECT_EQ(verdict, ReadVerdict::unauthenticated);
    }
  }
  // Bit flips anywhere: in the framing, a skipped entry or the decoded one.
  std::mt19937_64 flips(47);
  for (int trial = 0; trial < 96; ++trial) {
    Bytes mutated = valid;
    mutated[flips() % mutated.size()] ^=
        static_cast<std::uint8_t>(1 << (flips() % 8));
    check_against_full_parse(f, mutated, m, 4);
  }
  // Length bombs: the entry count, then each entry's blob length, set to
  // 0xFFFFFFFF. Each must fail the remaining-bytes check before allocating.
  std::vector<std::size_t> length_fields = {8};  // after gk_epoch
  for (std::size_t pos = 12, i = 0; i < bundle.entries.size(); ++i) {
    length_fields.push_back(pos + 8);  // after the entry's pid
    pos += 8 + 4 + bundle.entries[i].second.to_bytes().size();
  }
  for (std::size_t pos : length_fields) {
    Bytes bomb = valid;
    std::fill_n(bomb.begin() + static_cast<std::ptrdiff_t>(pos), 4, 0xff);
    for (auto verdict : check_against_full_parse(f, bomb, m, 4)) {
      EXPECT_EQ(verdict, ReadVerdict::unauthenticated);
    }
  }
}

TEST(BundleEntry, TwistPointsOutsideG2AreRefused) {
  // A signed entry whose C2 or C3 lies on the twist but outside the order-r
  // subgroup: the signature holds, the decode must not.
  Fixture f;
  const auto twist = ibbe::testutil::unchecked_twist_points(2);
  ASSERT_EQ(twist.size(), 2u);
  CipherBundle bundle;
  bundle.gk_epoch = 2;
  bundle.entries.emplace_back(0, f.pool[0]);
  bundle.entries.emplace_back(1, f.pool[1]);
  bundle.entries[1].second.ct.c2 = twist[0];
  bundle.entries.emplace_back(2, f.pool[2]);
  bundle.entries[2].second.ct.c3 = twist[1];
  ibbe::system::GroupManifest m;
  m.gk_epoch = 2;
  EXPECT_EQ(check_against_full_parse(f, bundle.to_bytes(), m, 3),
            (std::vector<ReadVerdict>{ReadVerdict::ok,
                                      ReadVerdict::unauthenticated,
                                      ReadVerdict::unauthenticated}));
  EXPECT_THROW(CipherBundle::from_bytes(bundle.to_bytes()), DeserializeError);
}

}  // namespace bundle_entry

TEST(FuzzDeserialize, TrailingBytesAreRejected) {
  for (const auto& format : all_formats()) {
    // Fixed-size point formats tolerate no trailing data by construction;
    // the length-prefixed ones must call expect_end. Either way appending a
    // byte must not produce a silently different object.
    Bytes extended = format.valid;
    extended.push_back(0xab);
    expect_graceful(format, extended);
  }
}

}  // namespace

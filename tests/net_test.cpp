// Networked cloud front-end (src/net): protocol codecs, session crypto, the
// socket server/RemoteStore stack over real loopback TCP, and the wire-level
// fault injector. Structure:
//
//   1. unit tests for the frame codecs and the per-session AEAD cipher;
//   2. end-to-end RPC semantics against a live NetServer (every CloudStore
//      op, long-poll wake and timeout, typed store-fault forwarding);
//   3. robustness: overload shedding (handshake and slot level),
//      reconnect-with-resume and mutation dedup across a mid-mutation
//      disconnect, torn/duplicated/corrupted frames, drain-on-shutdown;
//   4. RetryPolicy interaction: server-side poll timeouts consume no retry
//      attempts; jitter sequences replay bit-identically from a seed;
//   5. a concurrent-client hammer (TSan coverage for the server's session
//      machinery and the thread-safe fault schedules).
//
// Everything runs under tight deadlines: the acceptance criterion for this
// layer is "completes, returns typed degraded status, or throws a retryable
// FaultKind" — never a hang.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cloud/fault.h"
#include "cloud/store.h"
#include "ec/curves.h"
#include "field/fields.h"
#include "net/protocol.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "net/transport.h"
#include "test_util.h"
#include "util/bytes.h"
#include "util/errors.h"
#include "util/retry.h"

namespace {

using ibbe::cloud::CloudStore;
using ibbe::net::FaultInjectingTransport;
using ibbe::net::NetFaultPlan;
using ibbe::net::NetFaultSchedule;
using ibbe::net::NetServer;
using ibbe::net::NetServerConfig;
using ibbe::net::RemoteStore;
using ibbe::net::RemoteStoreConfig;
using ibbe::net::Request;
using ibbe::net::Response;
using ibbe::net::SessionCipher;
using ibbe::net::Status;
using ibbe::util::Bytes;
using ibbe::util::IntegrityError;
using ibbe::util::RetryPolicy;
using ibbe::util::TransientError;
using ibbe::testutil::numbered;

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ------------------------------------------------- hand-rolled wire client
//
// A minimal protocol client built from the public primitives, for tests
// that need byte-level control the RemoteStore deliberately hides: replaying
// a captured ClientHello, aborting a connection mid-handshake with an RST,
// flooding the accept loop with mute connections.

ibbe::field::P256Fr scalar_from(std::uint64_t seed) {
  Bytes be(32, 0);
  for (int i = 0; i < 8; ++i) {
    be[31 - i] = static_cast<std::uint8_t>(seed >> (8 * i));
  }
  return ibbe::field::P256Fr::from_be_bytes_reduce(be);
}

Bytes seq_frame(std::uint64_t seq, const Bytes& payload) {
  ibbe::util::ByteWriter w;
  w.u64(seq);
  w.raw(payload);
  return w.take();
}

struct ManualSession {
  std::unique_ptr<ibbe::net::SocketTransport> transport;
  ibbe::net::ServerHello reply;
  ibbe::net::SessionKeys keys;
  Bytes hello_frame;  // the seq-0 frame body as sent — replayable verbatim
};

/// Connects and handshakes by hand. session_id == 0 = fresh session; else a
/// resume attempt proving ownership of `resume_secret`.
ManualSession manual_handshake(std::uint16_t port, std::uint64_t eph_seed,
                               std::uint64_t session_id = 0,
                               const Bytes& resume_secret = {}) {
  auto eph = scalar_from(eph_seed);
  ibbe::net::ClientHello hello;
  hello.eph_pub =
      ibbe::ec::p256_to_bytes(ibbe::ec::P256Point::generator().mul(eph));
  if (session_id != 0) {
    hello.session_id = session_id;
    hello.resume_proof =
        ibbe::net::make_resume_proof(resume_secret, hello.eph_pub);
  }
  ManualSession s;
  s.transport = ibbe::net::SocketTransport::connect_loopback(
      port, std::chrono::milliseconds(1000));
  s.hello_frame = seq_frame(0, hello.to_bytes());
  s.transport->send_frame(s.hello_frame);
  auto frame = s.transport->recv_frame(std::chrono::milliseconds(1000));
  if (!frame) throw std::runtime_error("manual handshake: no ServerHello");
  ibbe::util::ByteReader r(*frame);
  if (r.u64() != 0) throw std::runtime_error("manual handshake: bad seq");
  s.reply = ibbe::net::ServerHello::from_bytes(r.raw(r.remaining()));
  if (s.reply.outcome != ibbe::net::ServerHello::busy) {
    auto server_eph = ibbe::ec::p256_from_bytes(s.reply.eph_pub);
    s.keys = ibbe::net::derive_session_keys(server_eph.mul(eph),
                                            hello.eph_pub, s.reply.eph_pub);
  }
  return s;
}

/// One sealed request/response round trip on a manual session.
Response manual_request(ManualSession& s, std::uint64_t seq,
                        const Request& req) {
  SessionCipher tx(s.keys.client_to_server, 'c');
  SessionCipher rx(s.keys.server_to_client, 's');
  s.transport->send_frame(seq_frame(seq, tx.seal(seq, req.to_bytes())));
  auto frame = s.transport->recv_frame(std::chrono::milliseconds(1000));
  if (!frame) throw std::runtime_error("manual request: no response");
  ibbe::util::ByteReader r(*frame);
  auto rseq = r.u64();
  auto opened = rx.open(rseq, r.raw(r.remaining()));
  if (!opened) throw std::runtime_error("manual request: AEAD failure");
  return Response::from_bytes(*opened);
}

/// Plain connected TCP socket (no protocol traffic), -1 on failure.
int raw_connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void raw_send(int fd, const Bytes& body) {
  Bytes wire(4 + body.size());
  auto len = static_cast<std::uint32_t>(body.size());
  wire[0] = static_cast<std::uint8_t>(len >> 24);
  wire[1] = static_cast<std::uint8_t>(len >> 16);
  wire[2] = static_cast<std::uint8_t>(len >> 8);
  wire[3] = static_cast<std::uint8_t>(len);
  std::memcpy(wire.data() + 4, body.data(), body.size());
  (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
}

/// Closes with SO_LINGER{1,0}: an RST, not an orderly FIN — the server's
/// next send or recv on this connection fails immediately.
void rst_close(int fd) {
  linger lg{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  ::close(fd);
}

RemoteStoreConfig client_config(const NetServer& server) {
  RemoteStoreConfig cfg;
  cfg.port = server.port();
  cfg.server_identity = server.identity_key();
  cfg.retry = RetryPolicy{}.without_delays();
  cfg.retry.max_attempts = 8;
  cfg.request_deadline = std::chrono::milliseconds(500);
  return cfg;
}

// ------------------------------------------------------------------ codecs

TEST(NetProtocol, RequestRoundTrip) {
  Request q;
  q.op = ibbe::net::Op::put_cas;
  q.id = 42;
  q.path = "groups/g/index";
  q.value = bytes_of("payload");
  q.expected = 7;
  auto decoded = Request::from_bytes(q.to_bytes());
  EXPECT_EQ(decoded.op, q.op);
  EXPECT_EQ(decoded.id, q.id);
  EXPECT_EQ(decoded.path, q.path);
  EXPECT_EQ(decoded.value, q.value);
  EXPECT_EQ(decoded.expected, q.expected);
}

TEST(NetProtocol, ResponseRoundTrip) {
  Response p;
  p.status = Status::conflict;
  p.id = 9;
  p.value = bytes_of("v");
  p.version = 31;
  p.flag = true;
  p.names = {"a/b", "a/c"};
  p.stats.puts = 5;
  p.stats.bytes_downloaded = 1234;
  p.bytes = 99;
  p.error = "detail";
  auto decoded = Response::from_bytes(p.to_bytes());
  EXPECT_EQ(decoded.status, p.status);
  EXPECT_EQ(decoded.id, p.id);
  EXPECT_EQ(decoded.value, p.value);
  EXPECT_EQ(decoded.version, p.version);
  EXPECT_EQ(decoded.flag, p.flag);
  EXPECT_EQ(decoded.names, p.names);
  EXPECT_EQ(decoded.stats.puts, 5u);
  EXPECT_EQ(decoded.stats.bytes_downloaded, 1234u);
  EXPECT_EQ(decoded.bytes, 99u);
  EXPECT_EQ(decoded.error, "detail");
}

TEST(NetProtocol, SessionCipherSealsPerSequence) {
  Bytes key(32, 0x42);
  SessionCipher tx(key, 'c');
  SessionCipher rx(key, 'c');
  auto sealed = tx.seal(1, bytes_of("hello"));
  auto opened = rx.open(1, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, bytes_of("hello"));
  // The sequence number is authenticated: the same frame under a different
  // seq must not open (replay onto another slot fails).
  EXPECT_FALSE(rx.open(2, sealed).has_value());
  // And a flipped bit anywhere fails the tag.
  auto tampered = sealed;
  tampered[tampered.size() / 2] ^= 1;
  EXPECT_FALSE(rx.open(1, tampered).has_value());
}

TEST(NetProtocol, DirectionsUseDistinctKeystreams) {
  Bytes key(32, 0x17);
  SessionCipher c2s(key, 'c');
  SessionCipher s2c(key, 's');
  auto sealed = c2s.seal(1, bytes_of("x"));
  EXPECT_FALSE(s2c.open(1, sealed).has_value());
}

// ------------------------------------------------------- end-to-end basics

TEST(NetEndToEnd, FullCloudStoreSurfaceOverLoopback) {
  CloudStore backing;
  NetServer server(backing);
  RemoteStore remote(client_config(server));

  auto v1 = remote.put("a/x", bytes_of("one"));
  EXPECT_GT(v1, 0u);
  EXPECT_EQ(remote.get("a/x"), bytes_of("one"));
  EXPECT_FALSE(remote.get("a/missing").has_value());

  auto vv = remote.get_versioned("a/x");
  ASSERT_TRUE(vv.has_value());
  EXPECT_EQ(vv->value, bytes_of("one"));
  EXPECT_EQ(vv->version, v1);
  EXPECT_EQ(remote.file_version("a/x"), v1);

  auto v2 = remote.put_cas("a/x", bytes_of("two"), v1);
  ASSERT_TRUE(v2.has_value());
  EXPECT_FALSE(remote.put_cas("a/x", bytes_of("lost"), v1).has_value());
  EXPECT_EQ(remote.get("a/x"), bytes_of("two"));

  remote.put("a/y", bytes_of("Y"));
  EXPECT_EQ(remote.list("a/"), (std::vector<std::string>{"a/x", "a/y"}));
  EXPECT_GT(remote.dir_version("a"), 0u);

  EXPECT_TRUE(remote.erase("a/y"));
  EXPECT_FALSE(remote.erase("a/y"));

  auto stats = remote.stats();
  EXPECT_GT(stats.puts, 0u);
  EXPECT_EQ(remote.stored_bytes(), backing.stored_bytes());
}

TEST(NetEndToEnd, LongPollWakesOnRemoteWrite) {
  CloudStore backing;
  NetServer server(backing);
  RemoteStore poller(client_config(server));
  RemoteStore writer(client_config(server));

  auto since = poller.dir_version("g");
  std::optional<std::uint64_t> woke;
  std::thread t([&] {
    woke = poller.long_poll("g", since, std::chrono::milliseconds(3000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  writer.put("g/file", bytes_of("news"));
  t.join();
  ASSERT_TRUE(woke.has_value());
  EXPECT_GT(*woke, since);
}

TEST(NetEndToEnd, ServerSidePollTimeoutIsSuccessNotFault) {
  CloudStore backing;
  NetServer server(backing);
  auto cfg = client_config(server);
  // A retry budget of ONE: if the poll timeout consumed a retry attempt (or
  // surfaced as a fault), this would throw.
  cfg.retry.max_attempts = 1;
  RemoteStore remote(cfg);
  auto since = remote.dir_version("quiet");
  auto woke = remote.long_poll("quiet", since, std::chrono::milliseconds(80));
  EXPECT_FALSE(woke.has_value());
  EXPECT_EQ(remote.wire_retries(), 0u);
}

TEST(NetEndToEnd, StoreFaultsForwardTyped) {
  CloudStore backing;
  ibbe::cloud::FaultPlan plan;  // all rates zero; we arm crashes explicitly
  ibbe::cloud::FaultInjectingStore faulty(backing, plan);
  NetServer server(faulty);
  auto cfg = client_config(server);
  RemoteStore remote(cfg);

  remote.put("p/x", bytes_of("ok"));
  faulty.arm_crash_after(1);
  // A store-side crash crosses the wire as Status::error_crash and re-throws
  // as CrashError — never absorbed by the wire retry loop.
  EXPECT_THROW(remote.put("p/x", bytes_of("boom")), ibbe::util::CrashError);
  // The wire itself was healthy: no wire retries were consumed by the fault.
  EXPECT_EQ(remote.wire_retries(), 0u);
  // The connection survives a forwarded fault.
  EXPECT_EQ(remote.get("p/x"), bytes_of("ok"));
}

TEST(NetEndToEnd, PinnedIdentityMismatchIsIntegrity) {
  CloudStore backing;
  NetServer server(backing);
  NetServerConfig other_cfg;
  other_cfg.identity_seed = 999;
  CloudStore other_backing;
  NetServer other(other_backing, other_cfg);

  auto cfg = client_config(server);
  cfg.server_identity = other.identity_key();  // pin the WRONG key
  RemoteStore remote(cfg);
  EXPECT_THROW(remote.get("x"), IntegrityError);
}

// ------------------------------------------------------------- robustness

TEST(NetRobustness, HandshakeOverloadShedsBusy) {
  CloudStore backing;
  NetServerConfig cfg;
  cfg.max_sessions = 2;
  NetServer server(backing, cfg);

  RemoteStore a(client_config(server));
  RemoteStore b(client_config(server));
  a.put("k", bytes_of("a"));
  b.put("k", bytes_of("b"));

  auto ccfg = client_config(server);
  ccfg.retry.max_attempts = 2;
  RemoteStore c(ccfg);
  // Both live slots are held; the third client is shed with a signed busy
  // ServerHello every attempt and surfaces a typed transient — not a hang.
  EXPECT_THROW(c.put("k", bytes_of("c")), TransientError);
  EXPECT_GE(server.stats().busy_handshakes, 2u);

  // Capacity freed -> the same client object succeeds on its next call.
  a.disconnect();
  b.disconnect();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));  // reap slices
  const auto version = c.put("k", bytes_of("c"));
  EXPECT_EQ(version, backing.file_version("k"));
}

TEST(NetRobustness, RequestSlotExhaustionShedsBusyNotHangs) {
  CloudStore backing;
  NetServerConfig cfg;
  cfg.request_slots = 0;  // every request is shed
  NetServer server(backing, cfg);
  auto ccfg = client_config(server);
  ccfg.retry.max_attempts = 3;
  RemoteStore remote(ccfg);
  try {
    remote.put("x", bytes_of("v"));
    FAIL() << "expected a typed busy/transient failure";
  } catch (const TransientError& e) {
    EXPECT_NE(std::string(e.what()).find("busy"), std::string::npos);
  }
  EXPECT_GE(server.stats().busy_requests, 3u);
  // Its retry attempts were consumed by explicit sheds, not timeouts.
  EXPECT_EQ(remote.wire_retries(), 2u);
}

TEST(NetRobustness, PollSlotExhaustionShedsBusy) {
  CloudStore backing;
  NetServerConfig cfg;
  cfg.poll_slots = 0;
  NetServer server(backing, cfg);
  auto ccfg = client_config(server);
  ccfg.retry.max_attempts = 2;
  RemoteStore remote(ccfg);
  remote.put("d/x", bytes_of("v"));  // plain requests still fine
  EXPECT_THROW(
      (void)remote.long_poll("d", 0, std::chrono::milliseconds(50)),
      TransientError);
  EXPECT_GE(server.stats().busy_polls, 2u);
}

TEST(NetRobustness, ReconnectResumesSessionAndDedupsMutation) {
  CloudStore backing;
  NetServer server(backing);
  auto cfg = client_config(server);
  auto schedule = std::make_shared<NetFaultSchedule>(NetFaultPlan{});
  cfg.faults = schedule;
  RemoteStore remote(cfg);

  auto v1 = remote.put("g/file", bytes_of("first"));

  // The next frame the client sends is DELIVERED, then the connection dies:
  // the server applies the put_cas but the response is lost — the classic
  // mid-mutation ambiguity. The client must reconnect, resume its session,
  // resend the same request id, and be answered from the dedup cache
  // WITHOUT the mutation re-executing.
  schedule->arm_disconnect_after_send(1);
  auto v2 = remote.put_cas("g/file", bytes_of("second"), v1);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(remote.get("g/file"), bytes_of("second"));
  EXPECT_EQ(remote.resumes(), 1u);
  auto stats = server.stats();
  EXPECT_EQ(stats.sessions_resumed, 1u);
  EXPECT_GE(stats.dedup_hits, 1u);
  // Dedup means exactly ONE server-side put_cas for this logical call: the
  // backing store saw 2 puts total (the first put + the one CAS).
  EXPECT_EQ(backing.stats().puts, 2u);
}

TEST(NetRobustness, ArmedDisconnectOnEraseDedups) {
  CloudStore backing;
  NetServer server(backing);
  auto cfg = client_config(server);
  auto schedule = std::make_shared<NetFaultSchedule>(NetFaultPlan{});
  cfg.faults = schedule;
  RemoteStore remote(cfg);
  remote.put("e/x", bytes_of("v"));
  schedule->arm_disconnect_after_send(1);
  // Without dedup the retried erase would find nothing and report false.
  EXPECT_TRUE(remote.erase("e/x"));
  EXPECT_GE(remote.resumes(), 1u);
}

TEST(NetRobustness, DroppedResponseIsRetriedToCompletion) {
  CloudStore backing;
  NetServer server(backing);
  auto cfg = client_config(server);
  cfg.request_deadline = std::chrono::milliseconds(200);
  auto schedule = std::make_shared<NetFaultSchedule>(NetFaultPlan{});
  cfg.faults = schedule;
  RemoteStore remote(cfg);
  remote.put("r/x", bytes_of("v0"));
  schedule->arm_drop_next_recv();  // the response evaporates once
  EXPECT_EQ(remote.get("r/x"), bytes_of("v0"));
  EXPECT_GE(remote.wire_retries(), 1u);
}

TEST(NetRobustness, CorruptedFrameIsIntegrityAndNeverRetried) {
  CloudStore backing;
  NetServer server(backing);
  auto cfg = client_config(server);
  auto schedule = std::make_shared<NetFaultSchedule>(NetFaultPlan{});
  cfg.faults = schedule;
  RemoteStore remote(cfg);
  remote.put("c/x", bytes_of("v"));
  schedule->arm_corrupt_next_recv();
  EXPECT_THROW(remote.get("c/x"), IntegrityError);
  // Integrity faults are NEVER absorbed by the wire retry loop.
  EXPECT_EQ(remote.wire_retries(), 0u);
  // The channel is torn down; a fresh call re-handshakes and succeeds.
  EXPECT_EQ(remote.get("c/x"), bytes_of("v"));
}

TEST(NetRobustness, TornFrameIsTransientAndRecovered) {
  CloudStore backing;
  NetServer server(backing);
  auto cfg = client_config(server);
  NetFaultPlan plan;
  plan.seed = 5;
  plan.torn_frame_rate = 1.0;  // every send tears...
  auto schedule = std::make_shared<NetFaultSchedule>(plan);
  schedule->set_enabled(false);  // ...once we enable it
  cfg.faults = schedule;
  RemoteStore remote(cfg);
  remote.put("t/x", bytes_of("v"));
  schedule->set_enabled(true);
  // Every attempt tears, so the budget exhausts with a TRANSIENT fault —
  // truncation is indistinguishable from loss, and it must stay retryable.
  EXPECT_THROW(remote.get("t/x"), TransientError);
  schedule->set_enabled(false);
  EXPECT_EQ(remote.get("t/x"), bytes_of("v"));
  EXPECT_GT(schedule->stats().torn_frames, 0u);
}

TEST(NetRobustness, DuplicatedDeliveryIsDiscardedBySequenceCheck) {
  CloudStore backing;
  NetServer server(backing);
  auto cfg = client_config(server);
  NetFaultPlan plan;
  plan.seed = 11;
  plan.send_dup_rate = 1.0;  // every request frame hits the server twice
  plan.recv_dup_rate = 1.0;  // every response is delivered to the client twice
  cfg.faults = std::make_shared<NetFaultSchedule>(plan);
  RemoteStore remote(cfg);
  auto v1 = remote.put("d/x", bytes_of("one"));
  auto v2 = remote.put_cas("d/x", bytes_of("two"), v1);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(remote.get("d/x"), bytes_of("two"));
  // The duplicated CAS frame did NOT execute twice (it would conflict).
  EXPECT_GT(server.stats().dropped_dup_frames, 0u);
}

TEST(NetRobustness, HandshakeFailureAfterAdmissionReleasesTheSlot) {
  CloudStore backing;
  NetServerConfig scfg;
  scfg.max_sessions = 1;  // a single leaked admission slot = permanent busy
  NetServer server(backing, scfg);

  // Valid hello, then an immediate RST: whenever the RST beats the server's
  // ServerHello send, the handshake throws AFTER the admission slot was
  // taken — the exact leak path. Every iteration must release its slot no
  // matter where on that path the connection died.
  for (std::uint64_t i = 0; i < 25; ++i) {
    ibbe::net::ClientHello hello;
    hello.eph_pub = ibbe::ec::p256_to_bytes(
        ibbe::ec::P256Point::generator().mul(scalar_from(i + 2)));
    int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    raw_send(fd, seq_frame(0, hello.to_bytes()));
    rst_close(fd);
  }

  // The server must drain back to fully idle within a bounded time: every
  // one of the 25 connections accepted (a connection still in the listen
  // backlog could take the single slot later) and no connection thread left,
  // admitted or still handshaking...
  auto drained = [&server] {
    const auto st = server.stats();
    return st.connections_accepted >= 25 && st.live_connections == 0;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!drained() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto st = server.stats();
  EXPECT_EQ(st.connections_accepted, 25u);
  EXPECT_EQ(st.live_connections, 0u);
  EXPECT_EQ(st.live_sessions, 0u);
  // ...and with max_sessions == 1, a real client only gets in if every one
  // of the aborted handshakes gave its slot back.
  RemoteStore remote(client_config(server));
  remote.put("leak/x", bytes_of("v"));
  EXPECT_EQ(remote.get("leak/x"), bytes_of("v"));
}

TEST(NetRobustness, ReplayedResumeHelloCannotLockOutTheRealClient) {
  CloudStore backing;
  NetServer server(backing);

  // A fresh session with one authenticated request (this also proves the
  // hand-rolled handshake agrees with the server's key schedule).
  auto s1 = manual_handshake(server.port(), 101);
  ASSERT_EQ(s1.reply.outcome, ibbe::net::ServerHello::accepted);
  Request put;
  put.op = ibbe::net::Op::put;
  put.id = 1;
  put.path = "rp/x";
  put.value = bytes_of("v");
  ASSERT_EQ(manual_request(s1, 1, put).status, Status::ok);
  const auto sid = s1.reply.session_id;
  const Bytes secret1 = s1.keys.resume_secret;
  s1.transport->close();

  // Resume, but die before sending any authenticated frame — so the new
  // resume secret stays UNCOMMITTED server-side. The hello is exactly what
  // an on-path attacker could have captured.
  auto s2 = manual_handshake(server.port(), 202, sid, secret1);
  ASSERT_EQ(s2.reply.outcome, ibbe::net::ServerHello::resumed);
  const Bytes secret2 = s2.keys.resume_secret;  // the real client's secret
  const Bytes captured = s2.hello_frame;
  s2.transport->close();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // re-park

  // The attacker replays the captured hello verbatim. The server cannot
  // tell it apart and answers it as a resume — but since the attacker can
  // never authenticate a frame (it lacks the ECDH key), the committed
  // secret must NOT rotate away from the real client.
  {
    auto t = ibbe::net::SocketTransport::connect_loopback(
        server.port(), std::chrono::milliseconds(1000));
    t->send_frame(captured);
    auto got = t->recv_frame(std::chrono::milliseconds(1000));
    ASSERT_TRUE(got.has_value());
    t->close();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // re-park

  // The real client resumes with ITS secret: the replay cost it nothing —
  // same session, dedup state intact, not a degraded fresh session.
  auto s3 = manual_handshake(server.port(), 303, sid, secret2);
  EXPECT_EQ(s3.reply.outcome, ibbe::net::ServerHello::resumed);
  Request get;
  get.op = ibbe::net::Op::get;
  get.id = 2;
  get.path = "rp/x";
  auto resp = manual_request(s3, 1, get);
  EXPECT_EQ(resp.status, Status::ok);
  EXPECT_EQ(resp.value, bytes_of("v"));
  EXPECT_EQ(server.stats().resume_misses, 0u);
  s3.transport->close();
}

TEST(NetRobustness, ConnectionFloodIsShedBeforeSpawningThreads) {
  CloudStore backing;
  NetServerConfig scfg;
  scfg.max_connections = 4;
  scfg.handshake_timeout = std::chrono::milliseconds(200);
  NetServer server(backing, scfg);

  // A flood of mute connections: max_sessions never bounds these (nothing
  // is admitted), so without the pre-admission cap each would pin a thread
  // for the full handshake timeout.
  std::vector<int> fds;
  for (int i = 0; i < 12; ++i) {
    int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server.stats().shed_connections < 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto st = server.stats();
  EXPECT_GE(st.shed_connections, 8u);  // everything beyond the cap: no thread
  EXPECT_LE(st.live_connections, 4u);
  for (int fd : fds) ::close(fd);

  // The held slots free as the closed connections are noticed; a real
  // client then gets in and completes normally.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  RemoteStore remote(client_config(server));
  const auto version = remote.put("f/x", bytes_of("v"));
  EXPECT_EQ(version, backing.file_version("f/x"));
}

TEST(NetEndToEnd, OversizedRequestFailsTypedWithoutTouchingTheWire) {
  CloudStore backing;
  NetServer server(backing);
  RemoteStore remote(client_config(server));
  // Serialized, sealed and framed, this can never fit max_frame_bytes: it
  // must fail up front as a contract violation — NOT leak a bare
  // std::length_error from inside the transport, and NOT burn transient
  // retries on an error no retry can fix.
  Bytes huge(ibbe::net::max_frame_bytes, 0x5a);
  EXPECT_THROW(remote.put("big/x", std::move(huge)), std::invalid_argument);
  EXPECT_EQ(remote.wire_retries(), 0u);
  // The store (and the connection) remain fully usable afterwards.
  remote.put("big/ok", bytes_of("v"));
  EXPECT_EQ(remote.get("big/ok"), bytes_of("v"));
}

TEST(NetRobustness, DrainOnShutdownNeverHangs) {
  CloudStore backing;
  auto server = std::make_unique<NetServer>(backing);
  auto cfg = client_config(*server);
  RemoteStore remote(cfg);
  remote.put("s/x", bytes_of("v"));

  // Park a long-poll on the server, then stop() while it is outstanding:
  // the server must answer/drain and join without hanging.
  std::thread poller([&] {
    try {
      (void)remote.long_poll("quiet", 0, std::chrono::milliseconds(5000));
    } catch (const ibbe::util::FaultError&) {
      // the connection dying at shutdown is an acceptable typed outcome
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto begin = std::chrono::steady_clock::now();
  server->stop();
  auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);
  EXPECT_LT(stop_ms.count(), 2000);
  poller.join();

  // After shutdown a client gets a typed transient, not a hang.
  auto cfg2 = client_config(*server);
  cfg2.retry.max_attempts = 2;
  RemoteStore late(cfg2);
  EXPECT_THROW(late.get("s/x"), TransientError);
}

// -------------------------------------------------- RetryPolicy interplay

TEST(NetRetryPolicy, JitterSequenceReplaysBitIdenticallyFromSeed) {
  RetryPolicy a, b;
  a.seed = b.seed = 0xfeedface;
  std::vector<std::int64_t> first, second;
  for (int k = 1; k <= 32; ++k) first.push_back(a.delay(k).count());
  for (int k = 1; k <= 32; ++k) second.push_back(b.delay(k).count());
  EXPECT_EQ(first, second);
  // And delay() is pure: interleaving calls cannot perturb the sequence.
  RetryPolicy c;
  c.seed = 0xfeedface;
  for (int k = 32; k >= 1; --k) {
    EXPECT_EQ(c.delay(k).count(), first[static_cast<std::size_t>(k - 1)]) << k;
  }
}

TEST(NetRetryPolicy, DeadlineBudgetUnaffectedByServerPollTimeouts) {
  CloudStore backing;
  NetServer server(backing);
  auto cfg = client_config(server);
  cfg.retry.max_attempts = 2;
  cfg.retry.deadline = std::chrono::milliseconds(150);
  RemoteStore remote(cfg);
  // Three successive server-side poll timeouts, each LONGER than the retry
  // deadline: all succeed, because a served timeout is a success that
  // consults neither the attempt budget nor the deadline budget.
  for (int i = 0; i < 3; ++i) {
    auto woke = remote.long_poll("q", 0, std::chrono::milliseconds(200));
    EXPECT_FALSE(woke.has_value());
  }
  EXPECT_EQ(remote.wire_retries(), 0u);
}

// ---------------------------------------------------------------- hammers

TEST(NetHammer, ConcurrentClientsOverFaultyWires) {
  CloudStore backing;
  NetServer server(backing);
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto cfg = client_config(server);
      cfg.request_deadline = std::chrono::milliseconds(250);
      NetFaultPlan plan;
      plan.seed = 1000 + static_cast<std::uint64_t>(c);
      plan.send_drop_rate = 0.02;
      plan.send_dup_rate = 0.02;
      plan.recv_dup_rate = 0.02;
      plan.disconnect_after_send_rate = 0.02;
      plan.disconnect_send_rate = 0.02;
      cfg.faults = std::make_shared<NetFaultSchedule>(plan);
      RemoteStore remote(cfg);
      const std::string mine = numbered("h/c", c);
      for (int i = 0; i < kOpsPerClient; ++i) {
        try {
          auto payload = bytes_of(numbered("v", i));
          remote.put(mine, payload);
          if (remote.get(mine) != payload) {
            ++failures;  // silent data divergence — the one forbidden outcome
          }
          (void)remote.file_version(mine);
        } catch (const TransientError&) {
          // Budget exhaustion under a hostile schedule is a legal, typed
          // outcome; divergence is not.
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Satellite: the store-level injectors are now hit from many server session
// threads at once — their counters and schedules must be thread-safe. (The
// schedule-heavy plan maximizes contention on the injector's RNG + stats.)
TEST(NetHammer, FaultInjectingStoreThreadSafeUnderServerLoad) {
  CloudStore backing;
  ibbe::cloud::FaultPlan plan;
  plan.seed = 42;
  plan.put_error_rate = 0.05;
  plan.get_error_rate = 0.05;
  plan.ambiguous_put_rate = 0.03;
  plan.spurious_cas_rate = 0.03;
  plan.stale_read_rate = 0.05;
  ibbe::cloud::FaultInjectingStore faulty(backing, plan);
  std::atomic<int> hook_fires{0};
  faulty.set_write_hook([&](const std::string&) { ++hook_fires; });
  NetServer server(faulty);

  constexpr int kClients = 6;
  constexpr int kOps = 25;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      RemoteStore remote(client_config(server));
      const std::string mine = numbered("f/c", c);
      for (int i = 0; i < kOps; ++i) {
        try {
          remote.put(mine, bytes_of(numbered("x", i)));
          (void)remote.get(mine);
        } catch (const ibbe::util::FaultError&) {
          // injected store faults forward as typed errors; fine
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Per-thread hook suppression: every server session thread's writes fire
  // the hook (a single shared flag would silently drop most of them).
  EXPECT_EQ(hook_fires.load(),
            static_cast<int>(faulty.mutation_ops()));
  auto fs = faulty.fault_stats();
  auto cs = faulty.stats();
  EXPECT_EQ(cs.faults_injected, backing.stats().faults_injected + fs.total());
}

TEST(NetHammer, MaliciousStoreCaptureIsSerializedAcrossThreads) {
  CloudStore backing;
  ibbe::cloud::MaliciousPlan plan;
  plan.target_prefix = "groups/";
  ibbe::cloud::MaliciousStore malicious(backing, plan);
  constexpr int kThreads = 6;
  constexpr int kWritesPerThread = 20;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        // Every index write auto-captures a generation; concurrent
        // committers must not interleave their snapshots.
        malicious.put("groups/g" + std::to_string(t) + "/index",
                      bytes_of("gen" + std::to_string(i)));
        (void)malicious.get("groups/g" + std::to_string(t) + "/index");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(malicious.generation_count(),
            static_cast<std::size_t>(kThreads * kWritesPerThread));
  EXPECT_EQ(malicious.malicious_stats().generations,
            static_cast<std::uint64_t>(kThreads * kWritesPerThread));
}

}  // namespace

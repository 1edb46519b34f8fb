// Networked cloud front-end: a TCP server that exposes a CloudStore over the
// framed protocol in net/protocol.h.
//
// Shape follows the classic multi-client session server (one ebftpd-style
// thread per accepted connection; the listener thread only accepts and
// reaps). Each connection runs the handshake, expands its per-session AEAD
// contexts once, then serves request/response frames until EOF or shutdown.
//
// Robustness properties the tests hold this to:
//
//   * overload shedding, never silent hangs — a connection beyond
//     max_sessions is answered with a signed `busy` ServerHello and closed;
//     a request that cannot get a request slot (or a long_poll that cannot
//     get a poll slot) is answered with Status::busy immediately. Nothing
//     queues unboundedly, nothing waits silently;
//   * bounded work per session — one in-flight request per connection (the
//     protocol is strictly request/response per session), long-polls clamped
//     to max_poll and served in short slices so shutdown is never blocked
//     behind a parked watcher;
//   * reconnect-with-resume — when a connection dies, its session state
//     (resume secret + mutation dedup cache) is parked, bounded FIFO. A
//     client that reconnects with a valid resume proof gets the state back,
//     so a retried mutation whose first response was lost is answered from
//     the dedup cache instead of being re-executed. A resume miss (evicted,
//     or server restarted) degrades to a fresh session — safe, because every
//     ambiguous mutation above this layer is CAS-guarded (the PR 6 ambiguity
//     protocol);
//   * drain on shutdown — stop() closes the listener, lets every session
//     finish its in-flight response (sessions poll a stop flag between
//     frames and between long-poll slices) and joins all threads.
//
// Store-side faults (the backing store may be a FaultInjectingStore or a
// MaliciousStore behind verification layers) are forwarded to the client as
// typed error statuses, so the util/errors.h taxonomy survives the wire.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "cloud/store.h"
#include "crypto/drbg.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "pki/ecdsa.h"

namespace ibbe::net {

struct NetServerConfig {
  /// Live connections beyond this are shed with a signed busy ServerHello.
  std::size_t max_sessions = 512;
  /// Hard cap on connection THREADS (admitted sessions plus connections
  /// still in handshake): beyond it, an accepted fd is closed immediately
  /// and no thread is spawned, so a pre-handshake connection flood cannot
  /// create unbounded threads each parked for handshake_timeout.
  /// 0 = derive as max_sessions * 2 + 16.
  std::size_t max_connections = 0;
  /// Disconnected-but-resumable sessions kept parked (FIFO eviction).
  std::size_t max_parked_sessions = 128;
  /// Concurrent requests actually executing against the store; a session
  /// that cannot take a slot gets Status::busy, it does not wait.
  std::size_t request_slots = 64;
  /// Concurrent long-polls parked against the store.
  std::size_t poll_slots = 1024;
  /// Server-side clamp on a long_poll request's timeout.
  std::chrono::milliseconds max_poll{30'000};
  /// Mutation responses remembered per session for retry dedup.
  std::size_t dedup_cache_entries = 256;
  /// Budget for the ClientHello to arrive on a fresh connection.
  std::chrono::milliseconds handshake_timeout{2'000};
  /// 0 = identity key from OS entropy; nonzero = deterministic (tests).
  std::uint64_t identity_seed = 0;
};

struct NetServerStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_resumed = 0;
  std::uint64_t resume_misses = 0;    // proof invalid or state evicted
  std::uint64_t busy_handshakes = 0;  // shed with a signed busy ServerHello
  std::uint64_t connections_accepted = 0;  // every accept(), shed included
  std::uint64_t shed_connections = 0;  // closed at accept: connection cap
  std::uint64_t busy_requests = 0;    // Status::busy for a request slot
  std::uint64_t busy_polls = 0;       // Status::busy for a poll slot
  std::uint64_t requests_served = 0;
  std::uint64_t dedup_hits = 0;       // mutations answered from cache
  std::uint64_t bad_frames = 0;       // AEAD failures / malformed frames
  std::uint64_t dropped_dup_frames = 0;  // stale sequence numbers discarded
  // Point-in-time gauges (snapshotted by stats()), not counters.
  std::uint64_t live_sessions = 0;     // admitted sessions holding a slot
  std::uint64_t live_connections = 0;  // connection threads incl. handshakes
};

class NetServer {
 public:
  explicit NetServer(cloud::CloudStore& store, NetServerConfig cfg = {});
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// Compressed P-256 ECDSA public key clients pin (the service identity).
  [[nodiscard]] util::Bytes identity_key() const {
    return identity_.public_key_bytes();
  }
  [[nodiscard]] NetServerStats stats() const;

  /// Idempotent: stop accepting, drain in-flight responses, join threads.
  void stop();

 private:
  /// The resumable part of a session: survives the connection.
  struct SessionState {
    std::uint64_t id = 0;
    /// The COMMITTED resume secret. On a resumed connection it rotates to
    /// the fresh handshake's secret only once the peer authenticates its
    /// first sealed frame (which requires the ephemeral ECDH key only the
    /// genuine dialer holds), so a replayed ClientHello — whose proof an
    /// on-path attacker can copy but whose session keys it cannot derive —
    /// can never rotate the secret away from the real client.
    util::Bytes resume_secret;
    /// Secrets from handshakes whose peer has not yet authenticated a
    /// frame; accepted for resume alongside the committed one (so a client
    /// whose connection died before its first request can still come back)
    /// and retired wholesale at the next commit. Bounded FIFO.
    std::deque<util::Bytes> pending_resume_secrets;
    // Mutation dedup: request id -> serialized Response (definitive
    // outcomes only). Bounded FIFO via dedup_order.
    std::map<std::uint64_t, util::Bytes> dedup;
    std::deque<std::uint64_t> dedup_order;
  };

  struct LiveSession {
    std::unique_ptr<SocketTransport> transport;
    std::shared_ptr<SessionState> state;
    std::thread thread;
    bool finished = false;  // guarded by NetServer::mutex_
    /// Holds a live_count_ slot. Set inside the admission critical section
    /// (NOT after the handshake returns) so the slot is released on EVERY
    /// exit path — including a ServerHello send that throws because the
    /// client already hung up. Only the owning thread reads it afterwards.
    bool admitted = false;
    /// This connection's freshly derived resume secret, committed into the
    /// session state on the first authenticated frame; empty for fresh
    /// sessions (their secret commits immediately — there is no prior
    /// client to protect from a replayed hello).
    util::Bytes pending_resume_secret;
  };

  void accept_loop();
  void session_loop(LiveSession* session);
  /// Handshake on a fresh connection. Returns the ciphers (c2s rx, s2c tx)
  /// or nullopt if the connection was shed/failed (already closed).
  struct SessionCrypto {
    SessionCipher rx;
    SessionCipher tx;
  };
  std::optional<SessionCrypto> handshake(LiveSession& session);
  Response execute(SessionState& state, const Request& req);
  Response execute_store_op(const Request& req);
  Response execute_long_poll(const Request& req);
  void park_locked(std::shared_ptr<SessionState> state);
  void reap_finished_locked();
  [[nodiscard]] std::size_t max_connections_locked() const;

  cloud::CloudStore& store_;
  NetServerConfig cfg_;
  TcpListener listener_;
  pki::EcdsaKeyPair identity_;

  mutable std::mutex mutex_;
  crypto::Drbg drbg_;                      // guarded by mutex_
  NetServerStats stats_;                   // guarded by mutex_
  std::uint64_t next_session_id_ = 1;      // guarded by mutex_
  std::size_t live_count_ = 0;             // guarded by mutex_
  std::size_t connection_count_ = 0;       // guarded by mutex_
  std::size_t requests_in_flight_ = 0;     // guarded by mutex_
  std::size_t polls_in_flight_ = 0;        // guarded by mutex_
  std::list<std::unique_ptr<LiveSession>> sessions_;  // guarded by mutex_
  std::map<std::uint64_t, std::shared_ptr<SessionState>> parked_;  // "
  std::deque<std::uint64_t> parked_order_;                         // "

  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
};

}  // namespace ibbe::net

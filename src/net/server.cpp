#include "net/server.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "field/fields.h"
#include "util/bytes.h"

namespace ibbe::net {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;

namespace {

/// A frame body is `u64 seq || payload`.
Bytes frame_body(std::uint64_t seq, std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.u64(seq);
  w.raw(payload);
  return w.take();
}

struct ParsedFrame {
  std::uint64_t seq;
  Bytes payload;
};

ParsedFrame parse_frame(const Bytes& body) {
  ByteReader r(body);
  ParsedFrame f;
  f.seq = r.u64();
  f.payload = r.raw(r.remaining());
  return f;
}

/// The poll/recv slice: sessions observe stop_ at least this often.
constexpr std::chrono::milliseconds k_slice{100};

/// Uncommitted resume secrets kept per session. Each slot can be consumed by
/// one replayed ClientHello; the real client's secret survives as long as
/// fewer than this many handshakes happen between its commits.
constexpr std::size_t k_max_pending_resume = 4;

/// HMAC-SHA256 output size: the only well-formed resume proof length.
constexpr std::size_t k_resume_proof_size = 32;

}  // namespace

NetServer::NetServer(cloud::CloudStore& store, NetServerConfig cfg)
    : store_(store),
      cfg_(cfg),
      identity_(cfg.identity_seed != 0
                    ? [&] {
                        crypto::Drbg seeded(cfg.identity_seed);
                        return pki::EcdsaKeyPair::generate(seeded);
                      }()
                    : [] {
                        crypto::Drbg os;
                        return pki::EcdsaKeyPair::generate(os);
                      }()) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

NetServer::~NetServer() { stop(); }

NetServerStats NetServer::stats() const {
  std::lock_guard lock(mutex_);
  NetServerStats s = stats_;
  s.live_sessions = live_count_;
  s.live_connections = connection_count_;
  return s;
}

std::size_t NetServer::max_connections_locked() const {
  return cfg_.max_connections != 0 ? cfg_.max_connections
                                   : cfg_.max_sessions * 2 + 16;
}

void NetServer::stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) {
    // Second caller: the first may still be joining; wait for the accept
    // thread only if it is ours to join (it never is here).
    return;
  }
  // No cross-thread fd access anywhere in shutdown: the accept loop polls
  // in k_slice slices and observes stop_ within one, so joining is enough;
  // the listener fd is closed by ~TcpListener once everything is joined.
  if (accept_thread_.joinable()) accept_thread_.join();
  // Sessions see stop_ within one recv/poll slice, finish their in-flight
  // response, and exit. Join them all, then drop the session list.
  std::list<std::unique_ptr<LiveSession>> sessions;
  {
    std::lock_guard lock(mutex_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) {
    if (s->thread.joinable()) s->thread.join();
  }
}

void NetServer::reap_finished_locked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->finished) {
      if ((*it)->thread.joinable()) (*it)->thread.detach();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::accept_loop() {
  while (!stop_.load()) {
    auto fd = listener_.accept(k_slice);
    if (!fd) {
      std::lock_guard lock(mutex_);
      reap_finished_locked();
      continue;
    }
    auto session = std::make_unique<LiveSession>();
    session->transport = std::make_unique<SocketTransport>(*fd);
    LiveSession* raw = session.get();
    bool shed = false;
    {
      std::lock_guard lock(mutex_);
      reap_finished_locked();
      ++stats_.connections_accepted;
      if (connection_count_ >= max_connections_locked()) {
        // Pre-admission cap: max_sessions bounds only ADMITTED sessions, so
        // a flood of connections that never (or slowly) speak would
        // otherwise pin one thread each for up to handshake_timeout. Shed
        // by closing outright — no thread, no handshake wait.
        ++stats_.shed_connections;
        shed = true;
      } else {
        ++connection_count_;
        sessions_.push_back(std::move(session));
      }
    }
    if (shed) continue;  // `session` dies here and its fd closes with it
    raw->thread = std::thread([this, raw] { session_loop(raw); });
  }
}

std::optional<NetServer::SessionCrypto> NetServer::handshake(
    LiveSession& session) {
  auto frame = session.transport->recv_frame(cfg_.handshake_timeout);
  if (!frame) return std::nullopt;  // client never spoke; shed silently
  auto parsed = parse_frame(*frame);
  if (parsed.seq != 0) return std::nullopt;
  ClientHello hello = ClientHello::from_bytes(parsed.payload);
  if (hello.version != protocol_version) return std::nullopt;
  ec::P256Point client_eph = ec::p256_from_bytes(hello.eph_pub);
  if (client_eph.is_infinity() || !client_eph.on_curve()) return std::nullopt;

  bool plausible_resume = false;
  if (hello.session_id != 0 &&
      hello.resume_proof.size() == k_resume_proof_size) {
    std::lock_guard lock(mutex_);
    // Only an id this server could have issued earns the parked-wait below;
    // an unauthenticated garbage hello must not buy a 200ms thread hold.
    plausible_resume = hello.session_id < next_session_id_;
  }
  if (plausible_resume) {
    // A reconnect can race the dying session's cleanup: the client observes
    // the wire fault and redials before the old session thread has parked
    // its state, and a premature miss would re-execute the very mutation the
    // dedup cache exists to suppress. Wait briefly for the entry to appear;
    // a genuinely unknown id pays this bound once and degrades to fresh.
    const auto deadline = std::chrono::steady_clock::now() + 2 * k_slice;
    for (;;) {
      {
        std::lock_guard lock(mutex_);
        if (parked_.count(hello.session_id) != 0) break;
      }
      if (stop_.load() || std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Admission + resume decision and all schedule state under the lock;
  // the EC arithmetic below runs outside it.
  bool shed = false;
  bool resumed = false;
  std::uint64_t session_id = 0;
  std::shared_ptr<SessionState> state;
  field::P256Fr eph_secret;
  {
    std::lock_guard lock(mutex_);
    if (live_count_ >= cfg_.max_sessions) {
      ++stats_.busy_handshakes;
      shed = true;
    } else {
      if (plausible_resume) {
        auto it = parked_.find(hello.session_id);
        // The committed secret and every uncommitted pending one are
        // acceptable: the client's current secret is pending until its
        // first authenticated frame lands, and may stay pending across a
        // connection that died before carrying one.
        auto proof_ok = [&](const SessionState& st) {
          if (util::ct_equal(make_resume_proof(st.resume_secret,
                                               hello.eph_pub),
                             hello.resume_proof)) {
            return true;
          }
          for (const auto& pending : st.pending_resume_secrets) {
            if (util::ct_equal(make_resume_proof(pending, hello.eph_pub),
                               hello.resume_proof)) {
              return true;
            }
          }
          return false;
        };
        if (it != parked_.end() && proof_ok(*it->second)) {
          state = it->second;
          parked_.erase(it);
          std::erase(parked_order_, hello.session_id);
          resumed = true;
          session_id = hello.session_id;
          ++stats_.sessions_resumed;
        } else {
          ++stats_.resume_misses;
        }
      } else if (hello.session_id != 0) {
        ++stats_.resume_misses;
      }
      if (!state) {
        state = std::make_shared<SessionState>();
        state->id = session_id = next_session_id_++;
        ++stats_.sessions_accepted;
      }
      ++live_count_;
      // Inside the critical section, not after handshake() returns: every
      // cleanup path must release the slot even if the ServerHello send
      // below throws (the client may already have hung up).
      session.admitted = true;
      do {
        eph_secret =
            field::P256Fr::from_be_bytes_reduce(drbg_.bytes(32));
      } while (eph_secret.is_zero());
    }
  }

  ServerHello reply;
  reply.session_id = session_id;
  if (shed) {
    reply.outcome = ServerHello::busy;
    auto transcript =
        handshake_transcript(hello.eph_pub, reply.eph_pub, 0, reply.outcome);
    reply.signature = identity_.sign(transcript).to_bytes();
    try {
      session.transport->send_frame(frame_body(0, reply.to_bytes()));
    } catch (const util::TransientError&) {
      // Already gone; the shed stands either way.
    }
    return std::nullopt;
  }

  reply.outcome = resumed ? ServerHello::resumed : ServerHello::accepted;
  reply.eph_pub =
      ec::p256_to_bytes(ec::P256Point::generator().mul(eph_secret));
  auto transcript = handshake_transcript(hello.eph_pub, reply.eph_pub,
                                         session_id, reply.outcome);
  reply.signature = identity_.sign(transcript).to_bytes();

  SessionKeys keys = derive_session_keys(client_eph.mul(eph_secret),
                                         hello.eph_pub, reply.eph_pub);
  if (resumed) {
    // Do NOT rotate the committed secret yet: a replayed ClientHello gets
    // this far too. The rotation commits on the first frame sealed under
    // the new session keys, which only the genuine dialer can produce.
    session.pending_resume_secret = keys.resume_secret;
    state->pending_resume_secrets.push_back(keys.resume_secret);
    while (state->pending_resume_secrets.size() > k_max_pending_resume) {
      state->pending_resume_secrets.pop_front();
    }
  } else {
    state->resume_secret = keys.resume_secret;
  }
  // Hand the state to the session BEFORE the send: if the client hung up
  // and send_frame throws, cleanup still parks the (possibly resumed)
  // state instead of dropping its dedup cache on the floor.
  session.state = std::move(state);
  session.transport->send_frame(frame_body(0, reply.to_bytes()));
  return SessionCrypto{SessionCipher(keys.client_to_server, 'c'),
                       SessionCipher(keys.server_to_client, 's')};
}

void NetServer::session_loop(LiveSession* session) {
  try {
    auto crypto = handshake(*session);
    if (crypto) {
      std::uint64_t last_recv_seq = 0;
      std::uint64_t send_seq = 0;
      while (!stop_.load()) {
        std::optional<Bytes> frame;
        try {
          frame = session->transport->recv_frame(k_slice);
        } catch (const util::TransientError&) {
          break;  // EOF / torn stream: park for resume below
        }
        if (!frame) continue;  // slice timeout; re-check stop_
        ParsedFrame parsed;
        try {
          parsed = parse_frame(*frame);
        } catch (const util::DeserializeError&) {
          std::lock_guard lock(mutex_);
          ++stats_.bad_frames;
          break;
        }
        if (parsed.seq <= last_recv_seq) {
          // Duplicate delivery (wire fault): authenticated-or-not, a stale
          // sequence number is silently discarded.
          std::lock_guard lock(mutex_);
          ++stats_.dropped_dup_frames;
          continue;
        }
        auto payload = crypto->rx.open(parsed.seq, parsed.payload);
        if (!payload) {
          // AEAD failure: the channel cannot be trusted; drop it. The
          // client surfaces this as an integrity fault on its own side.
          std::lock_guard lock(mutex_);
          ++stats_.bad_frames;
          break;
        }
        last_recv_seq = parsed.seq;
        if (!session->pending_resume_secret.empty()) {
          // First authenticated frame on a resumed connection: the peer
          // proved it holds the session keys, so it is the genuine dialer.
          // Commit the rotation and retire every other outstanding secret
          // — a replayed hello's proof is worthless from here on.
          session->state->resume_secret =
              std::move(session->pending_resume_secret);
          session->state->pending_resume_secrets.clear();
          session->pending_resume_secret.clear();
        }
        Request req;
        try {
          req = Request::from_bytes(*payload);
        } catch (const util::DeserializeError&) {
          std::lock_guard lock(mutex_);
          ++stats_.bad_frames;
          break;
        }
        Response resp = execute(*session->state, req);
        auto sealed = crypto->tx.seal(++send_seq, resp.to_bytes());
        session->transport->send_frame(frame_body(send_seq, sealed));
      }
    }
  } catch (...) {
    // Handshake/send failure on this connection only; fall through to
    // cleanup. The session (if admitted) is parked and resumable.
  }
  session->transport->close();
  {
    std::lock_guard lock(mutex_);
    if (session->admitted) {
      --live_count_;
      if (!stop_.load() && session->state) {
        park_locked(session->state);
      }
    }
    --connection_count_;
    session->finished = true;
  }
}

void NetServer::park_locked(std::shared_ptr<SessionState> state) {
  if (cfg_.max_parked_sessions == 0) return;
  while (parked_.size() >= cfg_.max_parked_sessions) {
    parked_.erase(parked_order_.front());
    parked_order_.pop_front();
  }
  parked_order_.push_back(state->id);
  parked_.emplace(state->id, std::move(state));
}

Response NetServer::execute(SessionState& state, const Request& req) {
  const bool mutation = op_is_mutation(req.op);
  if (mutation) {
    auto it = state.dedup.find(req.id);
    if (it != state.dedup.end()) {
      std::lock_guard lock(mutex_);
      ++stats_.dedup_hits;
      ++stats_.requests_served;
      return Response::from_bytes(it->second);
    }
  }

  Response resp;
  if (req.op == Op::long_poll) {
    resp = execute_long_poll(req);
  } else {
    resp = execute_store_op(req);
  }
  resp.id = req.id;

  if (mutation && (resp.status == Status::ok ||
                   resp.status == Status::conflict)) {
    // Definitive outcome: remember it so a retry of this exact request
    // (same id, response lost to the wire) replays instead of re-executing.
    while (state.dedup_order.size() >= cfg_.dedup_cache_entries) {
      state.dedup.erase(state.dedup_order.front());
      state.dedup_order.pop_front();
    }
    state.dedup_order.push_back(req.id);
    state.dedup.emplace(req.id, resp.to_bytes());
  }
  std::lock_guard lock(mutex_);
  ++stats_.requests_served;
  return resp;
}

Response NetServer::execute_store_op(const Request& req) {
  Response resp;
  {
    std::lock_guard lock(mutex_);
    if (requests_in_flight_ >= cfg_.request_slots) {
      ++stats_.busy_requests;
      resp.status = Status::busy;
      return resp;
    }
    ++requests_in_flight_;
  }
  try {
    switch (req.op) {
      case Op::get: {
        auto v = store_.get(req.path);
        if (v) {
          resp.value = std::move(*v);
        } else {
          resp.status = Status::not_found;
        }
        break;
      }
      case Op::get_versioned: {
        auto v = store_.get_versioned(req.path);
        if (v) {
          resp.value = std::move(v->value);
          resp.version = v->version;
        } else {
          resp.status = Status::not_found;
        }
        break;
      }
      case Op::file_version:
        resp.version = store_.file_version(req.path);
        break;
      case Op::put:
        resp.version = store_.put(req.path, req.value);
        break;
      case Op::put_cas: {
        auto v = store_.put_cas(req.path, req.value, req.expected);
        if (v) {
          resp.version = *v;
        } else {
          resp.status = Status::conflict;
        }
        break;
      }
      case Op::erase:
        resp.flag = store_.erase(req.path);
        break;
      case Op::list:
        resp.names = store_.list(req.path);
        break;
      case Op::dir_version:
        resp.version = store_.dir_version(req.path);
        break;
      case Op::stats:
        resp.stats = store_.stats();
        break;
      case Op::stored_bytes:
        resp.bytes = store_.stored_bytes();
        break;
      case Op::long_poll:
        break;  // handled by execute_long_poll
    }
  } catch (const util::FaultError& e) {
    switch (e.kind()) {
      case util::FaultKind::transient:
        resp.status = Status::error_transient;
        break;
      case util::FaultKind::crash:
        resp.status = Status::error_crash;
        break;
      case util::FaultKind::integrity:
        resp.status = Status::error_integrity;
        break;
    }
    resp.error = e.what();
  } catch (const std::exception& e) {
    resp.status = Status::error_transient;
    resp.error = e.what();
  }
  std::lock_guard lock(mutex_);
  --requests_in_flight_;
  return resp;
}

Response NetServer::execute_long_poll(const Request& req) {
  Response resp;
  {
    std::lock_guard lock(mutex_);
    if (polls_in_flight_ >= cfg_.poll_slots) {
      ++stats_.busy_polls;
      resp.status = Status::busy;
      return resp;
    }
    ++polls_in_flight_;
  }
  auto timeout = std::min<std::chrono::milliseconds>(
      std::chrono::milliseconds(req.timeout_ms), cfg_.max_poll);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  try {
    // Sliced so a parked watcher observes stop_ and never blocks shutdown.
    while (true) {
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0 || stop_.load()) {
        resp.flag = false;  // server-side poll timeout: a SUCCESS, not a fault
        resp.version = store_.dir_version(req.path);
        break;
      }
      auto v = store_.long_poll(req.path, req.since, std::min(remaining, k_slice));
      if (v) {
        resp.flag = true;
        resp.version = *v;
        break;
      }
    }
  } catch (const util::FaultError& e) {
    resp.status = e.kind() == util::FaultKind::integrity
                      ? Status::error_integrity
                      : (e.kind() == util::FaultKind::crash
                             ? Status::error_crash
                             : Status::error_transient);
    resp.error = e.what();
  } catch (const std::exception& e) {
    resp.status = Status::error_transient;
    resp.error = e.what();
  }
  std::lock_guard lock(mutex_);
  --polls_in_flight_;
  return resp;
}

}  // namespace ibbe::net

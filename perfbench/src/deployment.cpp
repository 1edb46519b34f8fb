#include "deployment.h"

#include <stdexcept>
#include <thread>

namespace perfbench {

using ibbe::core::Identity;

Deployment::Deployment(const Shape& shape, const std::vector<Identity>& members,
                       const std::vector<Identity>& subscribed,
                       std::uint64_t seed, std::uint64_t setup_op) {
  if (subscribed.size() != reader_threads * clients_per_reader) {
    throw std::invalid_argument("Deployment: wrong subscribed-client count");
  }
  Tracer::set_op(setup_op);
  const std::int64_t start = now_ns();
  const int main_thread = traced_thread();
  {
    Scope span(Layer::enclave, Verb::load_enclave);
    enclave_ = std::make_unique<ibbe::enclave::IbbeEnclave>(
        platform_, shape.partition_size);
  }

  ibbe::cloud::CloudStore* admin_inner = &backing_;
  if (shape.wire) {
    server_store_ = std::make_unique<MeteredStore>(backing_, Layer::served, gid);
    server_ = std::make_unique<ibbe::net::NetServer>(*server_store_);
    admin_remote_ = std::make_unique<ibbe::net::RemoteStore>(remote_config());
    admin_inner = admin_remote_.get();
  }
  const Layer store_layer = shape.wire ? Layer::net : Layer::cloud;
  admin_store_ = std::make_unique<MeteredStore>(*admin_inner, store_layer, gid);

  ibbe::crypto::Drbg rng(seed);
  ibbe::system::AdminConfig config;
  config.partition_size = shape.partition_size;
  admin_ = std::make_unique<ibbe::system::AdminApi>(
      *enclave_, *admin_store_, ibbe::pki::EcdsaKeyPair::generate(rng), config,
      seed);
  {
    Scope span(Layer::system_admin, Verb::create_group);
    admin_->create_group(gid, members);
  }

  readers_.resize(reader_threads);
  for (int r = 0; r < reader_threads; ++r) {
    Reader& reader = readers_[static_cast<std::size_t>(r)];
    ibbe::cloud::CloudStore* inner = &backing_;
    if (shape.wire) {
      reader.remote = std::make_unique<ibbe::net::RemoteStore>(remote_config());
      inner = reader.remote.get();
    }
    reader.store = std::make_unique<MeteredStore>(*inner, store_layer, gid);
    for (int c = 0; c < clients_per_reader; ++c) {
      reader.ids[c] = subscribed[static_cast<std::size_t>(
          r * clients_per_reader + c)];
      reader.clients[c] = provision(*reader.store, reader.ids[c]);
    }
  }

  // Each reader thread's first cold fetch, in parallel; the slowest thread
  // is the set-up's critical path.
  struct ColdFetch {
    std::vector<ibbe::util::Bytes> keys;
    std::string error;
    Segment segment;
  };
  std::vector<ColdFetch> results(readers_.size());
  const std::int64_t fetch_start = now_ns();
  {
    std::vector<std::thread> threads;
    JoinAll joiner{threads};
    for (std::size_t r = 0; r < readers_.size(); ++r) {
      threads.emplace_back([&, r] {
        Tracer::set_op(setup_op);
        ColdFetch& out = results[r];
        out.segment.thread = traced_thread();
        try {
          for (auto& client : readers_[r].clients) {
            std::optional<ibbe::util::Bytes> key;
            {
              Scope span(Layer::system_client, Verb::fetch);
              key = client->fetch_group_key(gid);
            }
            if (!key) throw std::runtime_error("cold fetch returned no key");
            out.keys.push_back(std::move(*key));
          }
        } catch (const std::exception& e) {
          out.error = e.what();
        }
        out.segment.t1 = now_ns();
        Tracer::set_op(0);
      });
    }
  }
  const std::int64_t joined = now_ns();
  Tracer::set_op(0);

  const ColdFetch* slowest = &results.front();
  for (const auto& res : results) {
    if (!res.error.empty()) throw std::runtime_error("set-up: " + res.error);
    for (const auto& key : res.keys) {
      if (!results.front().keys.empty() && key != results.front().keys.front()) {
        throw std::runtime_error("set-up: subscribed clients derived different keys");
      }
    }
    if (res.segment.t1 > slowest->segment.t1) slowest = &res;
  }
  first_key_ = results.front().keys.front();
  setup_segments_ = {
      {main_thread, start, fetch_start},
      {slowest->segment.thread, fetch_start, slowest->segment.t1},
      {main_thread, slowest->segment.t1, joined},
  };
}

Deployment::~Deployment() {
  readers_.clear();
  admin_.reset();
  admin_store_.reset();
  admin_remote_.reset();
  if (server_) server_->stop();
}

ibbe::net::RemoteStoreConfig Deployment::remote_config() const {
  ibbe::net::RemoteStoreConfig cfg;
  cfg.port = server_->port();
  cfg.server_identity = server_->identity_key();
  cfg.request_deadline = std::chrono::milliseconds(5000);
  return cfg;
}

std::unique_ptr<ibbe::system::ClientApi> Deployment::provision(
    ibbe::cloud::CloudStore& store, const Identity& id) {
  ibbe::core::UserSecretKey usk;
  {
    Scope span(Layer::enclave, Verb::extract_user_key);
    usk = enclave_->ecall_extract_user_key(id);
  }
  auto client = std::make_unique<ibbe::system::ClientApi>(
      store, enclave_->public_key(), std::move(usk),
      admin_->verification_point());
  bool verified = false;
  {
    Scope span(Layer::system_client, Verb::verify_credentials);
    verified = client->verify_credentials();
  }
  if (!verified) {
    throw std::runtime_error("set-up: credentials of " + id + " do not verify");
  }
  return client;
}

std::unique_ptr<ibbe::system::ClientApi> Deployment::make_client(
    const Identity& id) {
  return std::make_unique<ibbe::system::ClientApi>(
      *admin_store_, enclave_->public_key(),
      enclave_->ecall_extract_user_key(id), admin_->verification_point());
}

}  // namespace perfbench

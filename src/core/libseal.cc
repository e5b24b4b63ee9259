#include "src/core/libseal.h"

#include <algorithm>
#include <cctype>

#include "src/crypto/sha256.h"
#include "src/http/http.h"
#include "src/lthread/lthread.h"

namespace seal::core {

namespace {

// Marshalling structures for the enclave interface.
struct NewArgs {
  LibSealSsl* outside;
  int role;
  uint64_t conn_id;
  bool ok;
};

struct ConnArgs {
  uint64_t conn_id;
  LibSealSsl* outside;
  uint8_t* buf;
  size_t len;
  int64_t result;  // bytes or -1
};

struct BioArgs {
  LibSealSsl* outside;
  const uint8_t* wbuf;
  uint8_t* rbuf;
  size_t len;
  size_t result;
  bool ok;
};

struct InfoCbArgs {
  const LibSealSsl* ssl;
  int event;
  int bytes;
  // The saved outside callback address, passed back out through the
  // trampoline exactly as in the paper's listing (§4.1).
  SslInfoCallback callback;
};

struct ExDataArgs {
  uint64_t conn_id;
  int index;
  void* data;
};

bool CaseInsensitiveContains(const std::string& haystack, std::string_view needle) {
  auto it = std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end(),
                        [](char a, char b) {
                          return std::tolower(static_cast<unsigned char>(a)) ==
                                 std::tolower(static_cast<unsigned char>(b));
                        });
  return it != haystack.end();
}

}  // namespace

std::optional<size_t> ContentLengthFromHeaders(std::string_view headers) {
  constexpr std::string_view kName = "content-length:";
  size_t content_length = 0;
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t eol = headers.find("\r\n", pos);
    std::string_view line =
        headers.substr(pos, (eol == std::string_view::npos ? headers.size() : eol) - pos);
    pos = eol == std::string_view::npos ? headers.size() : eol + 2;
    if (line.size() < kName.size()) {
      continue;
    }
    bool is_content_length = true;
    for (size_t i = 0; i < kName.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(line[i])) != kName[i]) {
        is_content_length = false;
        break;
      }
    }
    if (!is_content_length) {
      continue;
    }
    std::string_view value = line.substr(kName.size());
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    // Strict digits-only parse: strtoul-style tolerance of trailing
    // garbage, signs or silent overflow would let a hostile peer desync
    // the framing from what the application sees.
    if (value.empty()) {
      return std::nullopt;
    }
    uint64_t parsed = 0;
    for (char c : value) {
      if (c < '0' || c > '9') {
        return std::nullopt;
      }
      if (parsed > (kAuditBufferCap - (c - '0')) / 10) {
        return std::nullopt;  // would exceed the cap (or overflow)
      }
      parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
    }
    content_length = parsed;  // last occurrence wins
  }
  return content_length;
}

std::optional<std::string> HttpMessageBuffer::TryExtract() {
  if (poisoned_) {
    return std::nullopt;
  }
  if (!framed_) {
    // Resume the terminator search where the last one stopped; back up
    // three bytes in case the "\r\n\r\n" straddles the old chunk boundary.
    size_t from = scan_offset_ > 3 ? scan_offset_ - 3 : 0;
    size_t header_end = buffer_.find("\r\n\r\n", from);
    if (header_end == std::string::npos) {
      scan_offset_ = buffer_.size();
      return std::nullopt;
    }
    auto content_length =
        ContentLengthFromHeaders(std::string_view(buffer_).substr(0, header_end));
    if (!content_length.has_value()) {
      poisoned_ = true;
      return std::nullopt;
    }
    total_ = header_end + 4 + *content_length;
    framed_ = true;
  }
  if (buffer_.size() < total_) {
    return std::nullopt;
  }
  std::string message = buffer_.substr(0, total_);
  buffer_.erase(0, total_);
  framed_ = false;
  scan_offset_ = 0;
  total_ = 0;
  return message;
}

void HttpMessageBuffer::Clear() {
  buffer_.clear();
  scan_offset_ = 0;
  total_ = 0;
  framed_ = false;
  poisoned_ = false;
}

// ---------------------------------------------------------------------------
// Trusted (in-enclave) state.
// ---------------------------------------------------------------------------

// BIO whose transport operations leave the enclave via ocalls: the I/O
// stream itself stays outside (Fig. 2).
class OcallBio : public tls::Bio {
 public:
  OcallBio(LibSealRuntime* runtime, LibSealSsl* outside, int ocall_read, int ocall_write,
           int ocall_close, Status (*do_ocall)(LibSealRuntime*, int, void*))
      : runtime_(runtime),
        outside_(outside),
        ocall_read_(ocall_read),
        ocall_write_(ocall_write),
        ocall_close_(ocall_close),
        do_ocall_(do_ocall) {}

  size_t Read(uint8_t* buf, size_t max) override {
    BioArgs args{outside_, nullptr, buf, max, 0, false};
    if (!do_ocall_(runtime_, ocall_read_, &args).ok()) {
      return 0;
    }
    return args.result;
  }

  bool Write(BytesView data) override {
    BioArgs args{outside_, data.data(), nullptr, data.size(), 0, false};
    if (!do_ocall_(runtime_, ocall_write_, &args).ok()) {
      return false;
    }
    return args.ok;
  }

  void Close() override {
    BioArgs args{outside_, nullptr, nullptr, 0, 0, false};
    (void)do_ocall_(runtime_, ocall_close_, &args);
  }

 private:
  LibSealRuntime* runtime_;
  LibSealSsl* outside_;
  int ocall_read_;
  int ocall_write_;
  int ocall_close_;
  Status (*do_ocall_)(LibSealRuntime*, int, void*);
};

struct LibSealRuntime::TrustedConn {
  std::unique_ptr<OcallBio> bio;
  std::unique_ptr<tls::TlsConnection> tls;
  LibSealSsl* outside = nullptr;
  tls::Role role = tls::Role::kServer;

  // Auditing accumulators (server-role connections only).
  HttpMessageBuffer request_buffer;
  HttpMessageBuffer response_buffer;
  std::deque<std::string> pending_requests;
  bool check_requested = false;
};

struct LibSealRuntime::EnclaveState {
  tls::TlsConfig tls_config;  // provisioned private key lives here, inside
  // Enclave-resident session cache: cached master secrets never cross the
  // enclave boundary, so resumption leaks nothing the live keys don't.
  tls::TlsSessionCache session_cache;
  crypto::EcdsaPrivateKey log_key;

  std::mutex mutex;
  uint64_t next_conn_id = 1;
  std::map<uint64_t, std::unique_ptr<TrustedConn>> conns;
  // The shadow association map (§4.1): outside pointer -> trusted state.
  std::map<const LibSealSsl*, uint64_t> shadow_map;

  TrustedConn* Find(uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second.get();
  }
};

// ---------------------------------------------------------------------------
// Runtime.
// ---------------------------------------------------------------------------

LibSealRuntime::LibSealRuntime(LibSealOptions options, std::unique_ptr<ServiceModule> module)
    : options_(std::move(options)), pending_module_(std::move(module)) {}

LibSealRuntime::~LibSealRuntime() { Shutdown(); }

Status LibSealRuntime::DoEcall(int id, void* data) {
  if (async_ != nullptr && async_->running()) {
    return async_->AsyncEcall(id, data);
  }
  return enclave_->Ecall(id, data);
}

Status LibSealRuntime::DoOcallFromInside(LibSealRuntime* runtime, int id, void* data) {
  // On an enclave-worker lthread task the asynchronous protocol applies;
  // everywhere else (plain threads in synchronous mode, and application
  // lthread tasks such as reactor connections — which also have a current
  // scheduler but no slot binding) the hardware-transition path is used.
  if (asyncall::AsyncCallRuntime::OnEnclaveWorkerThread()) {
    return asyncall::AsyncCallRuntime::AsyncOcall(id, data);
  }
  return runtime->enclave_->Ocall(id, data);
}

void LibSealRuntime::SimulateUnoptimisedOcalls(int count) {
  for (int i = 0; i < count; ++i) {
    BioArgs args{nullptr, nullptr, nullptr, 0, 0, false};
    (void)DoOcallFromInside(this, ocall_alloc_, &args);
  }
}

void LibSealRuntime::RegisterInterface() {
  // --- ocalls: run OUTSIDE the enclave ---
  ocall_bio_read_ = enclave_->RegisterOcall("bio_read", [](void* data) {
    auto* args = static_cast<BioArgs*>(data);
    args->result = args->outside->stream->Read(args->rbuf, args->len);
  });
  ocall_bio_write_ = enclave_->RegisterOcall("bio_write", [](void* data) {
    auto* args = static_cast<BioArgs*>(data);
    args->outside->stream->Write(BytesView(args->wbuf, args->len));
    args->ok = true;
  });
  ocall_bio_close_ = enclave_->RegisterOcall("bio_close", [](void* data) {
    auto* args = static_cast<BioArgs*>(data);
    args->outside->stream->Close();
  });
  ocall_info_cb_ = enclave_->RegisterOcall("info_callback", [](void* data) {
    auto* args = static_cast<InfoCbArgs*>(data);
    // Step 4 of the secure-callback protocol: the trampoline retrieved the
    // saved outside address and we now invoke it, outside the enclave,
    // with the sanitised shadow structure.
    args->callback(args->ssl, args->event, args->bytes);
  });
  ocall_alloc_ = enclave_->RegisterOcall("allocator", [](void* data) {
    // Stand-in for the malloc/free/pthread/random ocalls that the memory
    // pool and in-enclave locks/RNG eliminate (§4.2). Cost only.
    (void)data;
  });

  // --- ecalls: run INSIDE the enclave ---
  ecall_new_ = enclave_->RegisterEcall("ssl_new", [this](void* data) {
    auto* args = static_cast<NewArgs*>(data);
    auto conn = std::make_unique<TrustedConn>();
    conn->outside = args->outside;
    conn->role = args->role == 0 ? tls::Role::kServer : tls::Role::kClient;
    conn->bio = std::make_unique<OcallBio>(this, args->outside, ocall_bio_read_,
                                           ocall_bio_write_, ocall_bio_close_,
                                           &LibSealRuntime::DoOcallFromInside);
    conn->tls = std::make_unique<tls::TlsConnection>(conn->bio.get(), &state_->tls_config,
                                                     conn->role);
    if (info_callback_ != nullptr) {
      // Secure callback (§4.1): the enclave saves the outside address and
      // installs a trampoline that ocalls back out.
      LibSealSsl* outside = args->outside;
      SslInfoCallback saved_address = info_callback_;
      LibSealRuntime* runtime = this;
      conn->tls->set_info_callback([outside, saved_address, runtime](tls::InfoEvent event,
                                                                     int bytes) {
        InfoCbArgs cb_args{outside, static_cast<int>(event), bytes, saved_address};
        (void)DoOcallFromInside(runtime, runtime->ocall_info_cb_, &cb_args);
      });
    }
    std::lock_guard<std::mutex> lock(state_->mutex);
    uint64_t id = state_->next_conn_id++;
    state_->shadow_map[args->outside] = id;
    state_->conns[id] = std::move(conn);
    enclave_->TrackAlloc(options_.per_connection_epc_bytes);
    args->conn_id = id;
    args->ok = true;
  });

  ecall_handshake_ = enclave_->RegisterEcall("ssl_handshake", [this](void* data) {
    auto* args = static_cast<ConnArgs*>(data);
    TrustedConn* conn = state_->Find(args->conn_id);
    if (conn == nullptr) {
      args->result = -1;
      return;
    }
    if (!options_.reductions.in_enclave_locks_rng) {
      // A naive port would leave the enclave for locks and randomness
      // throughout the handshake.
      SimulateUnoptimisedOcalls(8);
    }
    Status status = conn->tls->Handshake();
    // Synchronise the sanitised shadow structure (§4.1).
    conn->outside->handshake_done = status.ok() ? 1 : 0;
    if (status.ok()) {
      // The session id is plaintext on the wire, so copying it to the
      // shadow leaks nothing; shard routers need it for affinity.
      const Bytes& sid = conn->tls->session_id();
      size_t n = std::min(sid.size(), sizeof(conn->outside->session_id));
      std::copy(sid.begin(), sid.begin() + static_cast<ptrdiff_t>(n),
                conn->outside->session_id);
      conn->outside->session_id_len = n;
    }
    args->result = status.ok() ? 1 : -1;
  });

  ecall_read_ = enclave_->RegisterEcall("ssl_read", [this](void* data) {
    auto* args = static_cast<ConnArgs*>(data);
    TrustedConn* conn = state_->Find(args->conn_id);
    if (conn == nullptr) {
      args->result = -1;
      return;
    }
    if (!options_.reductions.outside_memory_pool) {
      SimulateUnoptimisedOcalls(2);  // malloc + free of the record buffer
    }
    auto n = conn->tls->Read(args->buf, args->len);
    if (!n.ok()) {
      args->result = -1;
      return;
    }
    args->result = static_cast<int64_t>(*n);
    conn->outside->bytes_read += *n;
    // Auditing: observe the decrypted request stream (§5.1).
    if (logger_ != nullptr && conn->role == tls::Role::kServer && *n > 0) {
      conn->request_buffer.Append(reinterpret_cast<char*>(args->buf), *n);
      while (auto message = conn->request_buffer.TryExtract()) {
        if (CaseInsensitiveContains(*message, "libseal-check:")) {
          conn->check_requested = true;
        }
        conn->pending_requests.push_back(std::move(*message));
      }
      if (conn->request_buffer.poisoned() || conn->request_buffer.size() > kAuditBufferCap) {
        conn->request_buffer.Clear();  // non-HTTP traffic: stop accumulating
      }
    }
  });

  ecall_write_ = enclave_->RegisterEcall("ssl_write", [this](void* data) {
    auto* args = static_cast<ConnArgs*>(data);
    TrustedConn* conn = state_->Find(args->conn_id);
    if (conn == nullptr) {
      args->result = -1;
      return;
    }
    if (!options_.reductions.outside_memory_pool) {
      SimulateUnoptimisedOcalls(2);
    }
    if (logger_ == nullptr || conn->role != tls::Role::kServer) {
      Status status = conn->tls->Write(BytesView(args->buf, args->len));
      args->result = status.ok() ? static_cast<int64_t>(args->len) : -1;
      if (status.ok()) {
        conn->outside->bytes_written += args->len;
      }
      return;
    }
    // Audited path: hold response bytes until a complete message is
    // available, log the pair, optionally attach the in-band check result,
    // then encrypt and send.
    conn->response_buffer.Append(reinterpret_cast<char*>(args->buf), args->len);
    args->result = static_cast<int64_t>(args->len);
    conn->outside->bytes_written += args->len;
    while (auto message = conn->response_buffer.TryExtract()) {
      std::string request;
      if (!conn->pending_requests.empty()) {
        request = std::move(conn->pending_requests.front());
        conn->pending_requests.pop_front();
      }
      bool force_check = conn->check_requested;
      conn->check_requested = false;
      auto report = logger_->OnPair(args->conn_id, request, *message, force_check);
      if (!report.ok()) {
        args->result = -1;
        return;
      }
      std::string wire_message = std::move(*message);
      if (force_check) {
        // In-band result notification (§5.2): rewrite the response with a
        // Libseal-Check-Result header.
        std::optional<CheckReport> fallback;
        if (!report->has_value()) {
          fallback = logger_->last_report();
        }
        std::string summary = report->has_value()
                                  ? (*report)->Summary()
                                  : (fallback.has_value() ? fallback->Summary()
                                                          : "no check performed");
        auto parsed = http::ParseResponse(wire_message);
        if (parsed.ok()) {
          parsed->SetHeader("Libseal-Check-Result", summary);
          wire_message = parsed->Serialize();
        }
      }
      Status status = conn->tls->Write(wire_message);
      if (!status.ok()) {
        args->result = -1;
        return;
      }
    }
    if (conn->response_buffer.poisoned() || conn->response_buffer.size() > kAuditBufferCap) {
      // Non-HTTP response stream (or an unframeable Content-Length): fall
      // back to pass-through so the client still gets the bytes.
      std::string_view held = conn->response_buffer.view();
      Status status = conn->tls->Write(
          BytesView(reinterpret_cast<const uint8_t*>(held.data()), held.size()));
      conn->response_buffer.Clear();
      if (!status.ok()) {
        args->result = -1;
      }
    }
  });

  ecall_shutdown_ = enclave_->RegisterEcall("ssl_shutdown", [this](void* data) {
    auto* args = static_cast<ConnArgs*>(data);
    TrustedConn* conn = state_->Find(args->conn_id);
    if (conn != nullptr) {
      conn->tls->Close();
    }
  });

  ecall_free_ = enclave_->RegisterEcall("ssl_free", [this](void* data) {
    auto* args = static_cast<ConnArgs*>(data);
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto it = state_->conns.find(args->conn_id);
    if (it != state_->conns.end()) {
      state_->shadow_map.erase(it->second->outside);
      state_->conns.erase(it);
      enclave_->TrackFree(options_.per_connection_epc_bytes);
    }
  });

  ecall_ex_data_ = enclave_->RegisterEcall("ssl_ex_data", [](void* data) {
    // Only exercised when the ex_data-outside reduction is DISABLED: the
    // naive port keeps application data inside, paying a transition per
    // access. The data itself still round-trips through the args.
    (void)data;
  });
}

Status LibSealRuntime::Init() {
  if (initialised_) {
    return Status::Ok();
  }
  Bytes identity = ToBytes("libseal-enclave-v1:");
  if (pending_module_ != nullptr) {
    Append(identity, pending_module_->name());
  }
  if (!options_.instance_tag.empty()) {
    // Shard instances of the same module get distinct measurements, hence
    // distinct log/sealing keys (see LibSealOptions::instance_tag).
    Append(identity, ":");
    Append(identity, options_.instance_tag);
  }
  enclave_ = std::make_unique<sgx::Enclave>(options_.enclave, identity, "libseal-authority");
  state_ = std::make_unique<EnclaveState>();
  state_->tls_config = options_.tls;
  if (state_->tls_config.session_cache == nullptr) {
    state_->tls_config.session_cache = &state_->session_cache;
  }
  // The log signing key is derived inside the enclave from its sealing
  // identity: only this enclave (authority) can produce valid log entries.
  Bytes key_seed = ToBytes("libseal-log-key:");
  Append(key_seed, BytesView(enclave_->measurement().data(), enclave_->measurement().size()));
  state_->log_key = crypto::EcdsaPrivateKey::FromSeed(key_seed);

  RegisterInterface();

  if (pending_module_ != nullptr) {
    // The checker thread's CPU time is charged as in-enclave execution,
    // like the asyncall workers'.
    LoggerOptions logger_options = options_.logger;
    logger_options.enclave = enclave_.get();
    AuditLogOptions log_options = options_.audit_log;
    if (log_options.sealing_enclave == nullptr) {
      // Snapshots and trim archives seal under this enclave's identity
      // (MRSIGNER by default, so sealed logs survive an enclave upgrade).
      log_options.sealing_enclave = enclave_.get();
    }
    logger_ = std::make_unique<AuditLogger>(std::move(pending_module_), std::move(log_options),
                                            std::move(logger_options), state_->log_key);
    SEAL_RETURN_IF_ERROR(logger_->Init());
  }
  if (options_.use_async_calls) {
    async_ = std::make_unique<asyncall::AsyncCallRuntime>(enclave_.get(), options_.async);
    async_->Start();
  }
  initialised_ = true;
  return Status::Ok();
}

void LibSealRuntime::Shutdown() {
  if (async_ != nullptr) {
    async_->Stop();
  }
  initialised_ = false;
}

LibSealSsl* LibSealRuntime::SslNew(net::Stream* stream, tls::Role role) {
  auto* ssl = new LibSealSsl();
  ssl->runtime = this;
  ssl->stream = stream;
  NewArgs args{ssl, role == tls::Role::kServer ? 0 : 1, 0, false};
  if (!DoEcall(ecall_new_, &args).ok() || !args.ok) {
    delete ssl;
    return nullptr;
  }
  ssl->conn_id = args.conn_id;
  return ssl;
}

int LibSealRuntime::SslHandshake(LibSealSsl* ssl) {
  ConnArgs args{ssl->conn_id, ssl, nullptr, 0, -1};
  if (!DoEcall(ecall_handshake_, &args).ok()) {
    return -1;
  }
  return static_cast<int>(args.result);
}

int LibSealRuntime::SslRead(LibSealSsl* ssl, uint8_t* buf, int len) {
  ConnArgs args{ssl->conn_id, ssl, buf, static_cast<size_t>(len), -1};
  if (!DoEcall(ecall_read_, &args).ok()) {
    return -1;
  }
  return static_cast<int>(args.result);
}

int LibSealRuntime::SslWrite(LibSealSsl* ssl, const uint8_t* buf, int len) {
  ConnArgs args{ssl->conn_id, ssl, const_cast<uint8_t*>(buf), static_cast<size_t>(len), -1};
  if (!DoEcall(ecall_write_, &args).ok()) {
    return -1;
  }
  return static_cast<int>(args.result);
}

void LibSealRuntime::SslShutdown(LibSealSsl* ssl) {
  ConnArgs args{ssl->conn_id, ssl, nullptr, 0, 0};
  (void)DoEcall(ecall_shutdown_, &args);
}

void LibSealRuntime::SslFree(LibSealSsl* ssl) {
  if (ssl == nullptr) {
    return;
  }
  ConnArgs args{ssl->conn_id, ssl, nullptr, 0, 0};
  (void)DoEcall(ecall_free_, &args);
  delete ssl;
}

int LibSealRuntime::SslSetExData(LibSealSsl* ssl, int index, void* data) {
  if (index < 0 || index >= LibSealSsl::kMaxExData) {
    return 0;
  }
  if (!options_.reductions.ex_data_outside) {
    ExDataArgs args{ssl->conn_id, index, data};
    (void)DoEcall(ecall_ex_data_, &args);  // the naive port's transition
  }
  ssl->ex_data[index] = data;
  return 1;
}

void* LibSealRuntime::SslGetExData(LibSealSsl* ssl, int index) {
  if (index < 0 || index >= LibSealSsl::kMaxExData) {
    return nullptr;
  }
  if (!options_.reductions.ex_data_outside) {
    ExDataArgs args{ssl->conn_id, index, nullptr};
    (void)DoEcall(ecall_ex_data_, &args);
  }
  return ssl->ex_data[index];
}

Result<sgx::Quote> LibSealRuntime::AttestationQuote(const sgx::QuotingEnclave& qe) const {
  if (!initialised_) {
    return FailedPrecondition("runtime not initialised");
  }
  if (!state_->tls_config.certificate.has_value()) {
    return FailedPrecondition("no TLS certificate provisioned");
  }
  crypto::Sha256Digest cert_hash =
      crypto::Sha256::Hash(state_->tls_config.certificate->Encode());
  return qe.GenerateQuote(*enclave_, BytesView(cert_hash.data(), cert_hash.size()));
}

const crypto::EcdsaPublicKey& LibSealRuntime::log_public_key() const {
  return state_->log_key.public_key();
}

}  // namespace seal::core

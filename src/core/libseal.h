// LibSEAL: the secure audit library (paper §3, §4).
//
// A LibSealRuntime stands in for the LibSEAL shared library a service links
// against instead of OpenSSL/LibreSSL. It:
//
//   * runs the TLS protocol engine, the audit log, the SQL engine and the
//     invariant checker inside a (simulated) SGX enclave;
//   * exposes the familiar outside API (SslNew/SslAccept/SslRead/SslWrite,
//     info callbacks, ex_data) with OpenSSL-compatible semantics; thin
//     SSL_*-style free functions are provided in libseal_compat.h;
//   * keeps a sanitised SHADOW structure outside the enclave for fields
//     applications poke directly (§4.1 "Shadowing"), and stores
//     application ex_data outside to avoid transitions (§4.2);
//   * invokes application callbacks registered from outside through
//     trampoline ocalls (§4.1 "Secure callbacks");
//   * crosses the enclave boundary either with plain synchronous
//     ecalls/ocalls or through the asynchronous call runtime (§4.3).
//
// When an SSM is attached, every decrypted request and plaintext response
// is observed inside the enclave, complete HTTP message pairs are fed to
// the audit logger, and Libseal-Check requests receive in-band results via
// the Libseal-Check-Result response header (§5.2).
#ifndef SRC_CORE_LIBSEAL_H_
#define SRC_CORE_LIBSEAL_H_

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "src/asyncall/asyncall.h"
#include "src/core/logger.h"
#include "src/core/service_module.h"
#include "src/net/net.h"
#include "src/sgx/attestation.h"
#include "src/sgx/enclave.h"
#include "src/tls/tls.h"

namespace seal::core {

class LibSealRuntime;
struct LibSealSsl;

// Outside info callback (the SSL_CTX_set_info_callback analogue). Receives
// the OUTSIDE shadow structure, never trusted memory.
using SslInfoCallback = void (*)(const LibSealSsl* ssl, int event, int bytes);

// The outside, untrusted connection handle: LibSEAL's shadow of the SSL
// structure. Applications may read the sanitised fields directly (as
// Apache and Squid do, §4.1); the security-sensitive state lives inside
// the enclave under `conn_id`.
struct LibSealSsl {
  LibSealRuntime* runtime = nullptr;
  net::Stream* stream = nullptr;  // the BIO, outside the enclave (Fig. 2)
  uint64_t conn_id = 0;

  // Sanitised shadow fields, synchronised at ecall boundaries.
  int handshake_done = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  // The TLS session id after a successful handshake (empty until then).
  // Safe to expose: the id is already plaintext on the wire in both the
  // full and abbreviated handshakes. Shard routers key connection affinity
  // on it (see services::ShardedTransport).
  uint8_t session_id[32] = {0};
  size_t session_id_len = 0;

  // Application-specific data kept OUTSIDE the enclave (§4.2 optimisation
  // 3: Apache stores the current request here; keeping it outside avoids
  // an ecall per access).
  static constexpr int kMaxExData = 8;
  void* ex_data[kMaxExData] = {nullptr};
};

// Emulation switches for the §4.2 transition-reduction techniques. With a
// flag ON the optimisation is active (LibSEAL default); with it OFF the
// runtime issues the ocalls/ecalls a naive port would, so benchmarks can
// measure what each technique saves.
struct TransitionReductionOptions {
  bool outside_memory_pool = true;   // (1) avoids malloc/free ocalls
  bool in_enclave_locks_rng = true;  // (2) avoids pthread/random ocalls
  bool ex_data_outside = true;       // (3) avoids ecalls for app data
};

struct LibSealOptions {
  sgx::EnclaveConfig enclave;
  bool use_async_calls = true;  // §4.3; false = one hardware transition per call
  asyncall::AsyncCallRuntime::Options async;
  TransitionReductionOptions reductions;

  // Auditing. When no ServiceModule is attached the library is a pure
  // in-enclave TLS stack ("LibSEAL without auditing", §6.6).
  AuditLogOptions audit_log;
  LoggerOptions logger;

  // TLS identity/trust, provisioned into the enclave at Init (§6.3).
  tls::TlsConfig tls;

  // Distinguishes enclave instances of the SAME module within one process
  // (horizontal sharding: ShardSet runs one runtime per shard). The tag is
  // folded into the enclave identity, so each shard derives its own
  // measurement, log signing key and sealing identity — shard logs are
  // independently attributable and one shard's key cannot sign another's
  // entries. Empty (the default) preserves the single-instance identity.
  std::string instance_tag;

  // Approximate in-enclave footprint per connection, charged against the
  // EPC model.
  size_t per_connection_epc_bytes = 24 * 1024;
};

class LibSealRuntime {
 public:
  // `module` may be null (no auditing).
  LibSealRuntime(LibSealOptions options, std::unique_ptr<ServiceModule> module);
  ~LibSealRuntime();

  LibSealRuntime(const LibSealRuntime&) = delete;
  LibSealRuntime& operator=(const LibSealRuntime&) = delete;

  // Creates the enclave, provisions keys, initialises the audit schema and
  // starts the async-call workers.
  Status Init();
  void Shutdown();

  // --- the outside TLS API (OpenSSL semantics) ---

  // Creates a connection bound to `stream`. Returns the outside shadow.
  LibSealSsl* SslNew(net::Stream* stream, tls::Role role);
  // 1 on success, -1 on failure (like SSL_accept/SSL_connect).
  int SslHandshake(LibSealSsl* ssl);
  // >0 bytes, 0 on clean close, -1 on error.
  int SslRead(LibSealSsl* ssl, uint8_t* buf, int len);
  // Bytes consumed (all of them), or -1.
  int SslWrite(LibSealSsl* ssl, const uint8_t* buf, int len);
  void SslShutdown(LibSealSsl* ssl);
  void SslFree(LibSealSsl* ssl);

  // Secure callback registration (§4.1). The callback runs OUTSIDE.
  void SetInfoCallback(SslInfoCallback cb) { info_callback_ = cb; }

  // ex_data (outside per §4.2; flips to ecalls when the reduction is off).
  int SslSetExData(LibSealSsl* ssl, int index, void* data);
  void* SslGetExData(LibSealSsl* ssl, int index);

  // --- attestation & audit access ---

  // Quote binding the enclave to its TLS certificate (§6.3 "Bypassing
  // logging"): report_data = SHA-256 of the certificate.
  Result<sgx::Quote> AttestationQuote(const sgx::QuotingEnclave& qe) const;

  // The enclave's log-verification key (public part of the log signer).
  const crypto::EcdsaPublicKey& log_public_key() const;

  AuditLogger* logger() { return logger_.get(); }
  sgx::Enclave& enclave() { return *enclave_; }
  bool auditing_enabled() const { return logger_ != nullptr; }

 private:
  struct TrustedConn;   // in-enclave per-connection state
  struct EnclaveState;  // all trusted state

  // Dispatches a call across the boundary via the configured mechanism.
  Status DoEcall(int id, void* data);
  static Status DoOcallFromInside(LibSealRuntime* runtime, int id, void* data);

  void RegisterInterface();
  void SimulateUnoptimisedOcalls(int count);

  LibSealOptions options_;
  std::unique_ptr<ServiceModule> pending_module_;  // moved into logger at Init
  std::unique_ptr<sgx::Enclave> enclave_;
  std::unique_ptr<asyncall::AsyncCallRuntime> async_;
  std::unique_ptr<EnclaveState> state_;  // conceptually inside the enclave
  std::unique_ptr<AuditLogger> logger_;  // inside the enclave

  SslInfoCallback info_callback_ = nullptr;
  bool initialised_ = false;

  // ecall/ocall ids.
  int ecall_new_ = -1;
  int ecall_handshake_ = -1;
  int ecall_read_ = -1;
  int ecall_write_ = -1;
  int ecall_shutdown_ = -1;
  int ecall_free_ = -1;
  int ecall_ex_data_ = -1;
  int ocall_bio_read_ = -1;
  int ocall_bio_write_ = -1;
  int ocall_bio_close_ = -1;
  int ocall_info_cb_ = -1;
  int ocall_alloc_ = -1;
};

// Buffered-message cap: an audited connection that never completes an HTTP
// message must not grow without bound, and no valid Content-Length may
// promise a body larger than this.
inline constexpr size_t kAuditBufferCap = 8 * 1024 * 1024;

// Incremental HTTP/1.1 message framer (Content-Length framing) for the
// audited plaintext streams. Bytes are appended as they arrive; complete
// messages come off the front. Parsing works in place over string_views and
// resumes the header-terminator search from where the previous attempt
// stopped, so a message delivered in many small chunks costs one scan of
// each byte instead of one scan per chunk.
class HttpMessageBuffer {
 public:
  // Adds newly decrypted bytes to the stream.
  void Append(const char* data, size_t len) { buffer_.append(data, len); }

  // Removes and returns one complete message, or nullopt when the stream
  // is incomplete or poisoned.
  std::optional<std::string> TryExtract();

  // A malformed Content-Length (non-numeric, overflowing, or promising more
  // than kAuditBufferCap) poisons the stream: it cannot be framed, so the
  // caller should stop accumulating and fall back to pass-through.
  bool poisoned() const { return poisoned_; }

  size_t size() const { return buffer_.size(); }
  std::string_view view() const { return buffer_; }

  // Drops all buffered bytes and parser state (including poisoning).
  void Clear();

 private:
  std::string buffer_;
  size_t scan_offset_ = 0;  // the "\r\n\r\n" search resumes here
  // Parsed framing of the message at the front, valid once the header
  // block is complete.
  size_t total_ = 0;
  bool framed_ = false;
  bool poisoned_ = false;
};

// Strict Content-Length extraction over a header block (request/status line
// included; the last occurrence wins). Returns the length, 0 when absent,
// or nullopt when a value is non-numeric, overflows, or exceeds
// kAuditBufferCap. Surrounding spaces/tabs are tolerated.
std::optional<size_t> ContentLengthFromHeaders(std::string_view headers);

}  // namespace seal::core

#endif  // SRC_CORE_LIBSEAL_H_

// The server side of one benchmark instance, built the way a service links
// LibSEAL: HttpServer -> LibSealTransport -> LibSealRuntime (enclave,
// asyncall, TLS, and on the Git workloads the Git SSM -> AuditLogger ->
// AuditLog/seadb/ROTE -> CheckerEngine).
#ifndef AUDITBENCH_STACK_H_
#define AUDITBENCH_STACK_H_

#include <memory>
#include <string>

#include "bench.h"
#include "src/common/status.h"
#include "src/core/libseal.h"
#include "src/net/net.h"
#include "src/services/git_service.h"
#include "src/services/http_server.h"
#include "src/services/transport.h"

namespace auditbench {

class TraceRecorder;

seal::tls::TlsConfig ServerTls();
seal::tls::TlsConfig ClientTls();

// The default server configuration every workload uses: blocking worker
// pool, enclave cost model on, async calls, async checking with
// check_interval=25, ROTE with a 200 us round trip. The Git workloads log
// to disk (LibSEAL-disk) without fsync, so the spread reflects the
// program rather than this host's disk.
seal::core::LibSealOptions ServerOptions(Workload workload, const std::string& log_path);

struct ServerStack {
  Workload workload = Workload::kGitPush;
  std::string log_path;
  seal::net::Network network;
  seal::services::GitBackend backend;
  std::unique_ptr<seal::core::LibSealRuntime> runtime;
  std::unique_ptr<seal::services::ServerTransport> transport;
  std::unique_ptr<seal::services::ServerTransport> tracing;  // decorator, traced mode only
  std::unique_ptr<seal::services::HttpServer> server;

  ServerStack() = default;
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;
  // Stops the server before the runtime shuts down (member order).
  ~ServerStack() = default;
};

// Constructs, initialises and starts a stack. `recorder` (may be null)
// turns on the tracing decorator and handler spans.
seal::Result<std::unique_ptr<ServerStack>> StartStack(Workload workload,
                                                      const std::string& log_path,
                                                      TraceRecorder* recorder);

// Stops serving, drains pending check rounds and, on the audited
// workloads, verifies the persisted log: the signed chain must verify and
// hold exactly the logger's entry count. Returns that count (0 without a
// log).
seal::Result<size_t> StopAndVerify(ServerStack& stack);

}  // namespace auditbench

#endif  // AUDITBENCH_STACK_H_

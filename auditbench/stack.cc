#include "stack.h"

#include "src/services/static_content.h"
#include "src/ssm/git_ssm.h"
#include "src/tls/x509.h"
#include "trace.h"

namespace auditbench {

namespace {

struct Pki {
  Pki() {
    ca = seal::tls::MakeSelfSignedCa(
        "auditbench CA", seal::crypto::EcdsaPrivateKey::FromSeed(seal::ToBytes("auditbench-ca")));
    server_key = seal::crypto::EcdsaPrivateKey::FromSeed(seal::ToBytes("auditbench-server"));
    server_cert = seal::tls::IssueCertificate(ca, "auditbench.service",
                                              server_key.public_key(), 2);
  }
  seal::tls::CertifiedKey ca;
  seal::crypto::EcdsaPrivateKey server_key;
  seal::tls::Certificate server_cert;
};

const Pki& GetPki() {
  static const Pki pki;
  return pki;
}

}  // namespace

seal::tls::TlsConfig ServerTls() {
  seal::tls::TlsConfig config;
  config.certificate = GetPki().server_cert;
  config.private_key = GetPki().server_key;
  return config;
}

seal::tls::TlsConfig ClientTls() {
  seal::tls::TlsConfig config;
  config.trusted_roots = {GetPki().ca.cert};
  return config;
}

seal::core::LibSealOptions ServerOptions(Workload workload, const std::string& log_path) {
  seal::core::LibSealOptions options;
  options.enclave.inject_costs = true;
  options.use_async_calls = true;
  options.async.enclave_threads = 3;
  options.async.tasks_per_thread = 48;
  options.logger.check_interval = kCheckInterval;
  options.logger.async_checking = true;
  options.audit_log.counter_options.inject_latency = true;
  options.audit_log.counter_options.network_rtt_nanos = 200'000;
  if (IsGit(workload)) {
    options.audit_log.mode = seal::core::PersistenceMode::kDisk;
    options.audit_log.path = log_path;
    options.audit_log.fsync = false;
  }
  options.tls = ServerTls();
  return options;
}

seal::Result<std::unique_ptr<ServerStack>> StartStack(Workload workload,
                                                      const std::string& log_path,
                                                      TraceRecorder* recorder) {
  auto stack = std::make_unique<ServerStack>();
  stack->workload = workload;
  stack->log_path = log_path;
  std::unique_ptr<seal::core::ServiceModule> module;
  if (IsGit(workload)) {
    module = std::make_unique<seal::ssm::GitModule>();
  }
  stack->runtime = std::make_unique<seal::core::LibSealRuntime>(
      ServerOptions(workload, log_path), std::move(module));
  SEAL_RETURN_IF_ERROR(stack->runtime->Init());
  stack->transport = std::make_unique<seal::services::LibSealTransport>(stack->runtime.get());
  seal::services::ServerTransport* transport = stack->transport.get();

  seal::services::HttpHandler handler;
  if (IsGit(workload)) {
    seal::services::GitBackend* backend = &stack->backend;
    handler = [backend](const seal::http::HttpRequest& r) { return backend->Handle(r); };
  } else {
    handler = seal::services::ServeStaticContent;
  }
  if (recorder != nullptr) {
    stack->tracing = std::make_unique<TracingTransport>(transport, recorder);
    transport = stack->tracing.get();
    handler = TraceHandler(std::move(handler));
  }
  stack->server = std::make_unique<seal::services::HttpServer>(
      &stack->network, seal::services::HttpServer::Options{.address = kServerAddress}, transport,
      std::move(handler));
  SEAL_RETURN_IF_ERROR(stack->server->Start());
  return stack;
}

seal::Result<size_t> StopAndVerify(ServerStack& stack) {
  stack.server->Stop();
  seal::core::AuditLogger* logger = stack.runtime->logger();
  if (logger == nullptr) {
    stack.runtime->Shutdown();
    return size_t{0};
  }
  logger->WaitForChecks();
  seal::core::AuditLog& log = logger->log();
  auto verified = seal::core::AuditLog::VerifyLogFile(
      stack.log_path, stack.runtime->log_public_key(), log.counter());
  stack.runtime->Shutdown();
  if (!verified.ok()) {
    return verified.status();
  }
  if (*verified != log.entry_count()) {
    return seal::DataLoss("persisted log holds " + std::to_string(*verified) +
                          " entries, logger has " + std::to_string(log.entry_count()));
  }
  return *verified;
}

}  // namespace auditbench

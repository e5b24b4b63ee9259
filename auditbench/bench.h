// Shared definitions of the audited-request-path benchmark: the three
// workloads, the fixed load shape and the server configuration they share.
#ifndef AUDITBENCH_BENCH_H_
#define AUDITBENCH_BENCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace auditbench {

enum class Workload {
  kGitPush,        // write-dominated: 80% pushes, every response waits on group commit
  kGitFetchCheck,  // read-dominated: 80% fetches, 10% of them force a check round
  kTlsChurn,       // a fresh TLS connection per 1 KiB GET, no SSM
};

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);
inline bool IsGit(Workload workload) { return workload != Workload::kTlsChurn; }

// Load shape: one process, 3 closed-loop clients, 3 connections.
inline constexpr int kClients = 3;
inline constexpr int kBranches = 8;         // per client-owned repository
inline constexpr size_t kStaticBytes = 1024;  // tls-churn response body
inline constexpr size_t kCheckInterval = 25;  // LoggerOptions default
inline constexpr int kSessionOfferPercent = 90;  // tls-churn resumption offers

inline constexpr const char* kServerAddress = "auditbench:443";
// Carries the benchmark's request id so traced server spans can be joined
// with the client's round-trip span. Sent in every mode, so traced and
// untraced runs carry identical bytes.
inline constexpr const char* kRequestIdHeader = "X-Bench-Rid";

// Request ids: client index in the high bits, per-client sequence below.
inline uint64_t MakeRequestId(int client, uint64_t seq) {
  return (static_cast<uint64_t>(client + 1) << 40) | seq;
}

// Mixes the run seed with a stream label into an independent generator
// seed (per client, per workload).
uint64_t StreamSeed(uint64_t seed, Workload workload, int client);

}  // namespace auditbench

#endif  // AUDITBENCH_BENCH_H_

// The seeded, closed-loop load generator. Each of the kClients clients runs
// on its own thread and draws its operations from its own generator,
// seeded from the run seed, so a seed fixes every client's request
// sequence no matter how the run is timed. Every response is checked:
//
//   * Git: each client owns one repository and keeps a model of its refs;
//     pushes must answer "ok", every fetch advertisement must equal the
//     model, and every Libseal-Check-Result must report a clean round.
//   * tls-churn: every response must be a 200 with exactly kStaticBytes.
#ifndef AUDITBENCH_WORKLOADS_H_
#define AUDITBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/common/status.h"
#include "src/net/net.h"

namespace auditbench {

class TraceRecorder;

// Process CPU time (user + system) so far.
int64_t ProcessCpuNanos();

// One successful request, client-observed.
struct Completion {
  int64_t end_ns = 0;  // since the start of the timed phase
  int64_t latency_ns = 0;
};

struct LoadStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // transport errors and wrong outputs
  std::vector<Completion> completions;
  double elapsed_s = 0;
  // The timed phase split into equal windows; window_cpu_ns holds the
  // process CPU time at each window boundary (windows + 1 samples).
  double window_s = 0;
  std::vector<int64_t> window_cpu_ns;
  uint64_t pushes = 0;
  uint64_t fetches = 0;
  uint64_t forced_checks = 0;     // fetches carrying Libseal-Check
  uint64_t sessions_offered = 0;  // tls-churn connections offering a cached session
  std::vector<std::string> errors;  // the first few failure descriptions
};

class ClientFleet {
 public:
  // `recorder` (may be null) receives one client.rtt span per timed request.
  ClientFleet(Workload workload, uint64_t seed, seal::net::Network* network,
              TraceRecorder* recorder);
  ~ClientFleet();

  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  // The untimed tail of set-up: Git clients connect and push all
  // kBranches of their repository, then verify it with a fetch; tls-churn
  // clients make one request each, which caches their first session.
  seal::Status Prepare();

  // Runs the closed loop for `seconds`, sampling process CPU at the
  // boundaries of `windows` equal windows, and returns what it measured.
  LoadStats Run(double seconds, int windows);

  // Sends one forced-check fetch from client 0 and returns its
  // Libseal-Check-Result header (the detection probe; no output checks).
  seal::Result<std::string> ProbeForcedFetch();

  void Close();

 private:
  struct Client;

  Workload workload_;
  seal::net::Network* network_;
  TraceRecorder* recorder_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace auditbench

#endif  // AUDITBENCH_WORKLOADS_H_

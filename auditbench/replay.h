// Offline replay: the request/response pairs a traced Git run captured are
// sent again, single-threaded, through each audit layer's public function,
// and each call is timed on its own (its self time). Nothing else runs, so
// these figures are the layers' costs without queueing.
#ifndef AUDITBENCH_REPLAY_H_
#define AUDITBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "trace.h"

namespace auditbench {

struct ReplayResult {
  size_t pairs = 0;
  double tuples_per_pair = 0;
  double ssm_log_us = 0;        // GitModule::Log, per pair
  double append_us = 0;         // AuditLog::Append, per tuple
  double commit_us = 0;         // AuditLog::CommitHead, one per pair
  double ecdsa_sign_us = 0;     // EcdsaPrivateKey::Sign of a chain head
  double rote_increment_us = 0; // RoteCounter::Increment with the injected RTT
  double commit_self_us = 0;    // commit minus sign minus counter
  double check_round_ms = 0;    // AuditLogger::CheckInvariants, every kCheckInterval pairs
  double trim_ms = 0;           // AuditLog::Trim, every kCheckInterval pairs
};

// Replays at most `max_pairs` pairs (in capture order). Log files go under
// `dir`.
seal::Result<ReplayResult> Replay(const std::vector<CapturedPair>& pairs, size_t max_pairs,
                                  const std::string& dir);

}  // namespace auditbench

#endif  // AUDITBENCH_REPLAY_H_

#include "replay.h"

#include <algorithm>

#include "bench.h"
#include "src/common/clock.h"
#include "src/core/audit_log.h"
#include "src/core/logger.h"
#include "src/ssm/git_ssm.h"
#include "stack.h"

namespace auditbench {

using seal::NowNanos;

namespace {

constexpr int kSignRepeats = 200;
constexpr int kCounterRepeats = 100;

double MeanMicros(int64_t total_nanos, size_t count) {
  return count == 0 ? 0.0 : static_cast<double>(total_nanos) / 1e3 / static_cast<double>(count);
}

}  // namespace

seal::Result<ReplayResult> Replay(const std::vector<CapturedPair>& pairs, size_t max_pairs,
                                  const std::string& dir) {
  ReplayResult r;
  const size_t n = std::min(pairs.size(), max_pairs);
  r.pairs = n;
  if (n == 0) {
    return r;
  }
  seal::ssm::GitModule module;
  const auto key = seal::crypto::EcdsaPrivateKey::FromSeed(seal::ToBytes("auditbench-replay"));
  const seal::core::AuditLogOptions disk_options =
      ServerOptions(Workload::kGitPush, dir + "/replay.log").audit_log;

  // SSM: parse every pair into tuples.
  std::vector<std::vector<seal::core::LogTuple>> tuples(n);
  int64_t log_nanos = 0;
  size_t tuple_count = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t t0 = NowNanos();
    module.Log(pairs[i].request, pairs[i].response, static_cast<int64_t>(i + 1), &tuples[i]);
    log_nanos += NowNanos() - t0;
    tuple_count += tuples[i].size();
  }
  r.ssm_log_us = MeanMicros(log_nanos, n);
  r.tuples_per_pair = static_cast<double>(tuple_count) / static_cast<double>(n);

  // Audit log: append each pair's tuples, commit the head once per pair,
  // and trim at the live check interval so the log stays at the live
  // steady-state size.
  {
    seal::core::AuditLog log(disk_options, key);
    SEAL_RETURN_IF_ERROR(log.ExecuteSchema(module.Schema()));
    int64_t append_nanos = 0;
    int64_t commit_nanos = 0;
    int64_t trim_nanos = 0;
    size_t trims = 0;
    for (size_t i = 0; i < n; ++i) {
      for (const seal::core::LogTuple& tuple : tuples[i]) {
        seal::db::Row row;
        row.push_back(seal::db::Value(static_cast<int64_t>(i + 1)));
        row.insert(row.end(), tuple.values.begin(), tuple.values.end());
        int64_t t0 = NowNanos();
        SEAL_RETURN_IF_ERROR(log.Append(tuple.table, std::move(row)));
        append_nanos += NowNanos() - t0;
      }
      int64_t t0 = NowNanos();
      SEAL_RETURN_IF_ERROR(log.CommitHead());
      commit_nanos += NowNanos() - t0;
      if ((i + 1) % kCheckInterval == 0) {
        t0 = NowNanos();
        SEAL_RETURN_IF_ERROR(log.Trim(module.TrimmingQueries()));
        trim_nanos += NowNanos() - t0;
        ++trims;
      }
    }
    r.append_us = MeanMicros(append_nanos, tuple_count);
    r.commit_us = MeanMicros(commit_nanos, n);
    r.trim_ms = MeanMicros(trim_nanos, trims) / 1e3;

    int64_t t0 = NowNanos();
    for (int i = 0; i < kSignRepeats; ++i) {
      (void)key.Sign(log.chain_head());
    }
    r.ecdsa_sign_us = MeanMicros(NowNanos() - t0, kSignRepeats);
  }

  seal::rote::RoteCounter counter(disk_options.counter_options);
  int64_t t0 = NowNanos();
  for (int i = 0; i < kCounterRepeats; ++i) {
    SEAL_RETURN_IF_ERROR(counter.Increment().status());
  }
  r.rote_increment_us = MeanMicros(NowNanos() - t0, kCounterRepeats);
  r.commit_self_us = r.commit_us - r.ecdsa_sign_us - r.rote_increment_us;

  // Checking: an in-memory logger fed the same pairs, checked inline every
  // kCheckInterval pairs and trimmed after each check, like a live round.
  seal::core::LoggerOptions logger_options;
  logger_options.check_interval = 0;
  logger_options.async_checking = false;
  seal::core::AuditLogOptions memory_options;
  memory_options.counter_options = disk_options.counter_options;
  seal::core::AuditLogger logger(std::make_unique<seal::ssm::GitModule>(), memory_options,
                                 logger_options, key);
  SEAL_RETURN_IF_ERROR(logger.Init());
  int64_t check_nanos = 0;
  size_t checks = 0;
  for (size_t i = 0; i < n; ++i) {
    SEAL_RETURN_IF_ERROR(
        logger.OnPair(0, pairs[i].request, pairs[i].response, /*force_check=*/false).status());
    if ((i + 1) % kCheckInterval == 0) {
      t0 = NowNanos();
      SEAL_RETURN_IF_ERROR(logger.CheckInvariants().status());
      check_nanos += NowNanos() - t0;
      ++checks;
      SEAL_RETURN_IF_ERROR(logger.Trim());
    }
  }
  r.check_round_ms = MeanMicros(check_nanos, checks) / 1e3;
  return r;
}

}  // namespace auditbench

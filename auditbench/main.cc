// auditbench: one steady, layered benchmark of LibSEAL's audited request
// path (see README.md).
//
//   auditbench --workload <git-push|git-fetch-check|tls-churn> --seed N
//              --seconds S --trace <0|1> [--out DIR]
//
// --trace 0 sets the stack up, warms it up, measures the end-to-end metrics
// for S seconds with no tracing, then sets up more stacks (setup_s is the
// median of kSetUps set-ups). --trace 1 measures S/2 seconds untraced, then
// S/2 seconds traced on a fresh stack, replays the captured pairs offline
// and reports the per-layer metrics. Both print a `details:` line and then one
// JSON result object as the last line.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "replay.h"
#include "src/common/clock.h"
#include "src/crypto/sha256.h"
#include "src/obs/obs.h"
#include "stack.h"
#include "trace.h"
#include "workloads.h"

namespace auditbench {
namespace {

using seal::NowNanos;

// A seed kept out of tuning: a claim made on any other seeds should be
// confirmed on this one too.
constexpr uint64_t kHoldoutSeed = 424242;
// Pairs the traced run replays offline.
constexpr size_t kReplayPairs = 1000;
// Windows the timed phase is split into (see SplitWindows).
constexpr int kWindows = 10;
// Untimed traffic before each timed phase, so timing starts in the steady
// state: the log has gone through its trim cycle and caches are warm.
constexpr double kWarmUpSeconds = 1.0;
// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetUps = 7;

struct Args {
  Workload workload = Workload::kGitPush;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      auto w = ParseWorkload(value);
      if (!w.has_value()) {
        return false;
      }
      args->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0;
}

// ---- measurement helpers ----

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

// The quartile of per-window figures on the better side: the 75th
// percentile of throughputs, the 25th of latencies and costs. Other load on
// a shared host only ever slows windows, by amounts that vary from second
// to second; this order statistic is steadier under it than the median,
// while a change to the program moves every window.
double BetterQuartile(std::vector<double> values, bool higher_is_better) {
  return Percentile(std::move(values), higher_is_better ? 0.75 : 0.25);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Bytes this process has passed to write(2) so far (/proc/self/io wchar).
uint64_t WrittenBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") {
      return value;
    }
  }
  return 0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// A fixed CPU-bound probe: SHA-256 throughput over 4 MiB, in MB/s. Taken
// before and after the timed phase so that a run slowed by other load on
// the host can be recognised; no metric uses it.
double HostSpeedMbPerS() {
  static const seal::Bytes data(4 << 20, 0x5a);
  const int64_t t0 = NowNanos();
  seal::crypto::Sha256Digest digest = seal::crypto::Sha256::Hash(data);
  const int64_t nanos = NowNanos() - t0 + (digest[0] & 1);
  return Ratio(static_cast<double>(data.size()) / 1e6, static_cast<double>(nanos) / 1e9);
}

// obs counter/histogram deltas between two registry snapshots.
struct ObsDelta {
  seal::obs::Snapshot before;
  seal::obs::Snapshot after;

  double Counter(const std::string& name) const {
    return static_cast<double>(after.counter(name) - before.counter(name));
  }
  double Family(const std::string& family) const {
    return static_cast<double>(after.CounterFamilyTotal(family) -
                               before.CounterFamilyTotal(family));
  }
  double HistMean(const std::string& name) const {
    const seal::obs::HistogramSnapshot* a = after.histogram(name);
    const seal::obs::HistogramSnapshot* b = before.histogram(name);
    if (a == nullptr) {
      return 0;
    }
    uint64_t count = a->count - (b == nullptr ? 0 : b->count);
    uint64_t sum = a->sum - (b == nullptr ? 0 : b->sum);
    return Ratio(static_cast<double>(sum), static_cast<double>(count));
  }
};

// ---- result assembly ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

// Run-wide bookkeeping printed beside the metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, std::string> details;  // name -> JSON value

  void Fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
  void Absorb(const LoadStats& stats) {
    attempted += stats.attempted;
    failed += stats.failed;
    for (const std::string& e : stats.errors) {
      Fail(e);
    }
  }
};

std::string DetailsJson(const Args& args, const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"workload\": " << Quote(WorkloadName(args.workload)) << ", \"seed\": " << args.seed
      << ", \"holdout_seed\": " << kHoldoutSeed << ", \"seconds\": " << Num(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"fingerprint\": {\"nproc\": "
      << std::thread::hardware_concurrency()
      << ", \"build_type\": " << Quote(AUDITBENCH_BUILD_TYPE)
      << ", \"compiler\": " << Quote(AUDITBENCH_COMPILER)
      << ", \"flush_policy\": " << Quote(IsGit(args.workload) ? "disk, fsync=false" : "none")
      << ", \"cost_model\": {\"enclave.inject_costs\": true, \"use_async_calls\": true, "
         "\"async.enclave_threads\": 3, \"rote.inject_latency\": true, "
         "\"rote.network_rtt_us\": 200, \"logger.async_checking\": true, "
         "\"logger.check_interval\": "
      << kCheckInterval << "}, \"clients\": " << kClients << ", \"connections\": " << kClients
      << "}";
  for (const auto& [name, value] : outcome.details) {
    out << ", " << Quote(name) << ": " << value;
  }
  out << ", \"problems\": [";
  for (size_t i = 0; i < outcome.problems.size(); ++i) {
    out << (i ? ", " : "") << Quote(outcome.problems[i]);
  }
  out << "]}";
  return out.str();
}

// ---- the runs ----

// A started stack plus its prepared clients. The fleet dials the stack's
// network, so it is destroyed first.
struct Instance {
  std::unique_ptr<ServerStack> stack;
  std::unique_ptr<ClientFleet> fleet;
};

seal::Result<Instance> SetUp(const Args& args, const std::string& log_path,
                             TraceRecorder* recorder) {
  Instance inst;
  auto stack = StartStack(args.workload, log_path, recorder);
  if (!stack.ok()) {
    return stack.status();
  }
  inst.stack = std::move(*stack);
  inst.fleet =
      std::make_unique<ClientFleet>(args.workload, args.seed, &inst.stack->network, recorder);
  SEAL_RETURN_IF_ERROR(inst.fleet->Prepare());
  return inst;
}

// Closes the clients and verifies the stack's persisted log.
void TearDown(Instance& inst, Outcome* outcome, const char* phase) {
  inst.fleet->Close();
  auto verified = StopAndVerify(*inst.stack);
  if (!verified.ok()) {
    outcome->Fail(std::string(phase) + ": log verification failed: " +
                  verified.status().ToString());
  } else {
    outcome->details[std::string(phase) + "_verified_entries"] = std::to_string(*verified);
  }
  inst.fleet.reset();
  inst.stack.reset();
}

// git-fetch-check's untimed detection probe: a rolled-back advertisement
// must be reported in the forced check's result.
void Probe(const Args& args, Instance& inst, Outcome* outcome) {
  if (args.workload != Workload::kGitFetchCheck) {
    return;
  }
  inst.stack->backend.set_attack(seal::services::GitBackend::Attack::kRollback);
  auto result = inst.fleet->ProbeForcedFetch();
  inst.stack->backend.set_attack(seal::services::GitBackend::Attack::kNone);
  std::string text = result.ok() ? *result : result.status().ToString();
  outcome->details["probe_result"] = Quote(text);
  if (text.find("git-soundness") == std::string::npos) {
    outcome->Fail("detection probe missed the rollback: " + text);
  }
}

double Throughput(const LoadStats& stats) {
  return Ratio(static_cast<double>(stats.completions.size()), stats.elapsed_s);
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

// The timed phase's figures per window. Each end-to-end timing reports the
// better quartile of its windows (see BetterQuartile).
struct WindowFigures {
  std::vector<double> rps, p50_ms, p99_ms, cpu_ms_per_req, samples;
};

WindowFigures SplitWindows(const LoadStats& stats) {
  const size_t n = stats.window_cpu_ns.size() - 1;
  std::vector<std::vector<double>> latency_ms(n);
  for (const Completion& c : stats.completions) {
    auto w = static_cast<size_t>(static_cast<double>(c.end_ns) / (stats.window_s * 1e9));
    if (w < n) {  // requests finishing after the deadline fall outside every window
      latency_ms[w].push_back(static_cast<double>(c.latency_ns) / 1e6);
    }
  }
  WindowFigures f;
  for (size_t w = 0; w < n; ++w) {
    const double count = static_cast<double>(latency_ms[w].size());
    f.samples.push_back(count);
    f.rps.push_back(count / stats.window_s);
    f.p50_ms.push_back(Percentile(latency_ms[w], 0.50));
    f.p99_ms.push_back(Percentile(latency_ms[w], 0.99));
    f.cpu_ms_per_req.push_back(
        Ratio(static_cast<double>(stats.window_cpu_ns[w + 1] - stats.window_cpu_ns[w]) / 1e6,
              count));
  }
  return f;
}

// Times one stack set-up: runtime construction, Init, server start and the
// clients' connections and repository seeding, up to the first timed
// request.
seal::Result<Instance> TimedSetUp(const Args& args, const std::string& log_path,
                                  std::vector<double>* setup_s) {
  int64_t t0 = NowNanos();
  auto inst = SetUp(args, log_path, nullptr);
  setup_s->push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  return inst;
}

std::vector<Metric> RunEndToEnd(const Args& args, const std::string& dir, Outcome* outcome) {
  const std::string log_path = dir + "/audit.log";
  // The PKI is the benchmark's fixture, not part of the service's set-up.
  (void)ServerTls();
  const double host_before = HostSpeedMbPerS();
  std::vector<double> setup_s;
  auto inst = TimedSetUp(args, log_path, &setup_s);
  if (!inst.ok()) {
    outcome->Fail("set-up failed: " + inst.status().ToString());
    return {};
  }
  outcome->Absorb(inst->fleet->Run(kWarmUpSeconds, 1));
  LoadStats stats = inst->fleet->Run(args.seconds, kWindows);
  // Sampled before the extra set-ups below, so it is the peak of one
  // serving instance.
  const double peak_rss_mb = PeakRssMb();
  outcome->Absorb(stats);
  Probe(args, *inst, outcome);
  TearDown(*inst, outcome, "measured");
  outcome->details["host_sha256_mb_s"] = JsonList({host_before, HostSpeedMbPerS()});

  // More set-ups after the timed phase, for a steady setup_s median.
  for (int k = 1; k < kSetUps; ++k) {
    auto extra = TimedSetUp(args, log_path, &setup_s);
    if (!extra.ok()) {
      outcome->Fail("set-up failed: " + extra.status().ToString());
      return {};
    }
    TearDown(*extra, outcome, "setup");
  }

  WindowFigures f = SplitWindows(stats);
  outcome->details["setup_s_all"] = JsonList(setup_s);
  outcome->details["window_s"] = Num(stats.window_s);
  outcome->details["window_rps"] = JsonList(f.rps);
  outcome->details["window_p50_ms"] = JsonList(f.p50_ms);
  outcome->details["window_p99_ms"] = JsonList(f.p99_ms);
  outcome->details["window_latency_samples"] = JsonList(f.samples);
  outcome->details["window_cpu_ms_per_req"] = JsonList(f.cpu_ms_per_req);
  outcome->details["pushes"] = std::to_string(stats.pushes);
  outcome->details["fetches"] = std::to_string(stats.fetches);
  outcome->details["forced_checks"] = std::to_string(stats.forced_checks);
  return {
      {"throughput_rps", BetterQuartile(f.rps, true), "1/s"},
      {"latency_p50_ms", BetterQuartile(f.p50_ms, false), "ms"},
      {"latency_p99_ms", BetterQuartile(f.p99_ms, false), "ms"},
      {"success_pct",
       100.0 * Ratio(static_cast<double>(stats.attempted - stats.failed),
                     static_cast<double>(stats.attempted)),
       "%"},
      {"setup_s", Median(setup_s), "s"},
      {"cpu_ms_per_req", BetterQuartile(f.cpu_ms_per_req, false), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> RunTraced(const Args& args, const std::string& dir, Outcome* outcome) {
  // Untraced reference run, for trace.overhead_pct.
  double untraced_rps = 0;
  {
    auto inst = SetUp(args, dir + "/untraced.log", nullptr);
    if (!inst.ok()) {
      outcome->Fail("set-up failed: " + inst.status().ToString());
      return {};
    }
    outcome->Absorb(inst->fleet->Run(kWarmUpSeconds, 1));
    LoadStats stats = inst->fleet->Run(args.seconds / 2, kWindows);
    outcome->Absorb(stats);
    untraced_rps = Throughput(stats);
    TearDown(*inst, outcome, "untraced");
  }

  TraceRecorder recorder(/*capture_pairs=*/IsGit(args.workload));
  auto inst = SetUp(args, dir + "/traced.log", &recorder);
  if (!inst.ok()) {
    outcome->Fail("set-up failed: " + inst.status().ToString());
    return {};
  }
  outcome->Absorb(inst->fleet->Run(kWarmUpSeconds, 1));
  ObsDelta obs;
  obs.before = seal::obs::Registry::Global().TakeSnapshot();
  const uint64_t written0 = WrittenBytes();
  LoadStats stats = inst->fleet->Run(args.seconds / 2, kWindows);
  const uint64_t written1 = WrittenBytes();
  obs.after = seal::obs::Registry::Global().TakeSnapshot();
  outcome->Absorb(stats);
  // The probe's pair (a rolled-back advertisement) is not replayed.
  const size_t live_pairs = recorder.PairCount();
  Probe(args, *inst, outcome);
  TearDown(*inst, outcome, "traced");

  const std::string span_file = dir + "/spans.tsv";
  if (!recorder.WriteTsv(span_file).ok()) {
    outcome->Fail("could not write " + span_file);
  }
  outcome->details["span_file"] = Quote(span_file);
  outcome->details["spans"] = std::to_string(recorder.spans().size());

  ReplayResult replay;
  if (IsGit(args.workload)) {
    std::vector<CapturedPair> pairs(recorder.pairs().begin(),
                                    recorder.pairs().begin() + static_cast<ptrdiff_t>(live_pairs));
    auto r = Replay(pairs, kReplayPairs, dir);
    if (!r.ok()) {
      outcome->Fail("replay failed: " + r.status().ToString());
    } else {
      replay = *r;
    }
    outcome->details["replayed_pairs"] = std::to_string(replay.pairs);
  }

  std::vector<RequestBreakdown> requests = BreakDown(recorder.spans());
  outcome->details["traced_requests"] = std::to_string(requests.size());
  std::vector<double> handshake, read, write, handler, unattributed;
  for (const RequestBreakdown& b : requests) {
    if (b.has_handshake) {
      handshake.push_back(b.handshake_us);
    }
    read.push_back(b.read_us);
    write.push_back(b.write_us);
    handler.push_back(b.handler_us);
    unattributed.push_back(b.unattributed_us);
  }

  const double req = static_cast<double>(stats.completions.size());
  const double traced_rps = Throughput(stats);
  const double rounds = obs.Family("logger_check_rounds_total");
  const double pairs_logged = obs.Counter("logger_pairs_total");
  const double pairs_per_batch = obs.HistMean("logger_batch_pairs");
  const double fallbacks = obs.Family("db_vector_fallback_total");

  double ledger_pct = 0;
  if (IsGit(args.workload) && replay.pairs > 0) {
    const double spans_us = Mean(read) + Mean(write);
    const double replay_us = replay.ssm_log_us + replay.append_us * replay.tuples_per_pair +
                             Ratio(replay.commit_us, pairs_per_batch);
    ledger_pct = 100.0 * Ratio(spans_us - replay_us, spans_us);
  }

  return {
      {"libseal.handshake_us.p50", Percentile(handshake, 0.50), "us"},
      {"libseal.handshake_us.p99", Percentile(handshake, 0.99), "us"},
      {"libseal.read_us.p50", Percentile(read, 0.50), "us"},
      {"libseal.write_us.p50", Percentile(write, 0.50), "us"},
      {"libseal.write_us.p99", Percentile(write, 0.99), "us"},
      {"services.handler_us.p50", Percentile(handler, 0.50), "us"},
      {"rtt.unattributed_us.p50", Percentile(unattributed, 0.50), "us"},
      {"sgx.ecalls_per_req",
       Ratio(obs.Counter("sgx_ecalls_total") + obs.Counter("asyncall_ecalls_total"), req),
       "count"},
      {"sgx.ocalls_per_req",
       Ratio(obs.Counter("sgx_ocalls_total") + obs.Counter("asyncall_ocalls_total"), req),
       "count"},
      {"sgx.transitions_per_req", Ratio(obs.Counter("sgx_transitions_total"), req), "count"},
      {"asyncall.ecall_latency_us.mean", obs.HistMean("asyncall_ecall_latency_nanos") / 1e3,
       "us"},
      {"asyncall.ocall_roundtrips_per_ecall", obs.HistMean("asyncall_ocall_roundtrips_per_ecall"),
       "count"},
      {"tls.handshake_full_us.mean", obs.HistMean("tls_handshake_full_nanos") / 1e3, "us"},
      {"tls.handshake_abbrev_us.mean", obs.HistMean("tls_handshake_abbreviated_nanos") / 1e3,
       "us"},
      {"tls.resumption_ratio",
       Ratio(obs.Counter("tls_resumptions_total"), static_cast<double>(stats.sessions_offered)),
       "ratio"},
      {"logger.append_us.mean", obs.HistMean("logger_append_nanos") / 1e3, "us"},
      {"logger.pairs_per_batch", pairs_per_batch, "count"},
      {"logger.check_stall_us.mean", obs.HistMean("logger_check_stall_nanos") / 1e3, "us"},
      {"checker.round_ms.mean", obs.HistMean("logger_check_nanos") / 1e6, "ms"},
      {"checker.trim_ms.mean", obs.HistMean("logger_trim_nanos") / 1e6, "ms"},
      {"checker.rounds_per_1k_pairs", 1000.0 * Ratio(rounds, pairs_logged), "count"},
      {"checker.forced_coalesced_ratio",
       Ratio(obs.Counter("logger_forced_coalesced_total"),
             static_cast<double>(stats.forced_checks)),
       "ratio"},
      {"seadb.vector_fallback_ratio",
       Ratio(fallbacks, obs.Counter("db_vectorized_queries_total") + fallbacks), "ratio"},
      {"seadb.fastpath_hits_per_round", Ratio(obs.Family("seadb_fastpath_hits_total"), rounds),
       "count"},
      {"seadb.full_scans_per_round", Ratio(obs.Family("seadb_full_scans_total"), rounds),
       "count"},
      {"ssm.log_us", replay.ssm_log_us, "us"},
      {"audit_log.append_us", replay.append_us, "us"},
      {"audit_log.commit_us", replay.commit_us, "us"},
      {"crypto.ecdsa_sign_us", replay.ecdsa_sign_us, "us"},
      {"rote.increment_us", replay.rote_increment_us, "us"},
      {"audit_log.commit_self_us", replay.commit_self_us, "us"},
      {"seadb.check_round_ms", replay.check_round_ms, "ms"},
      {"audit_log.trim_ms", replay.trim_ms, "ms"},
      {"audit_log.bytes_per_pair",
       Ratio(static_cast<double>(written1 - written0), pairs_logged), "bytes"},
      {"ledger.unattributed_pct", ledger_pct, "%"},
      {"trace.overhead_pct", 100.0 * Ratio(untraced_rps - traced_rps, untraced_rps), "%"},
  };
}

}  // namespace
}  // namespace auditbench

int main(int argc, char** argv) {
  using namespace auditbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: auditbench --workload <git-push|git-fetch-check|tls-churn> --seed N "
                 "--seconds S --trace <0|1> [--out DIR]\n");
    return 2;
  }
  const std::string dir = args.out + "/" + WorkloadName(args.workload) + "-seed" +
                          std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  ::mkdir(args.out.c_str(), 0755);
  ::mkdir(dir.c_str(), 0755);

  Outcome outcome;
  std::vector<Metric> metrics =
      args.trace ? RunTraced(args, dir, &outcome) : RunEndToEnd(args, dir, &outcome);
  if (metrics.empty()) {
    outcome.correct = false;
  }
  std::printf("details: %s\n", DetailsJson(args, outcome).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(outcome.attempted, 1)),
              static_cast<unsigned long long>(outcome.failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

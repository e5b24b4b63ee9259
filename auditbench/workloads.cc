#include "workloads.h"

#include <sys/resource.h>

#include <latch>
#include <map>
#include <mutex>
#include <thread>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/services/git_service.h"
#include "src/services/https_client.h"
#include "src/services/static_content.h"
#include "stack.h"
#include "trace.h"

namespace auditbench {

using seal::NowNanos;

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kGitPush, Workload::kGitFetchCheck, Workload::kTlsChurn}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kGitPush:
      return "git-push";
    case Workload::kGitFetchCheck:
      return "git-fetch-check";
    case Workload::kTlsChurn:
      return "tls-churn";
  }
  return "?";
}

int64_t ProcessCpuNanos() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto nanos = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 + static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return nanos(ru.ru_utime) + nanos(ru.ru_stime);
}

uint64_t StreamSeed(uint64_t seed, Workload workload, int client) {
  seal::SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(workload) + 1)));
  uint64_t s = mix.Next();
  for (int i = 0; i <= client; ++i) {
    s = mix.Next();
  }
  return s;
}

namespace {

constexpr size_t kMaxErrorsKept = 8;

std::string Hex40(seal::SplitMix64& rng) {
  static const char kHex[] = "0123456789abcdef";
  std::string s;
  s.reserve(40);
  uint64_t bits = 0;
  for (int i = 0; i < 40; ++i) {
    if (i % 16 == 0) {
      bits = rng.Next();
    }
    s.push_back(kHex[bits & 0xf]);
    bits >>= 4;
  }
  return s;
}

enum class Op : uint8_t { kPush, kFetch, kForcedFetch, kOfferSession, kFreshSession };

// Operations come in shuffled blocks of a fixed composition, so every seed
// sends exactly the workload's mix and only the order varies: git-push 80%
// pushes, git-fetch-check 80% fetches of which 10% force a check,
// tls-churn 90% of connections offering the cached session.
std::vector<Op> MixBlock(Workload workload) {
  std::vector<Op> block;
  auto add = [&](Op op, int n) { block.insert(block.end(), static_cast<size_t>(n), op); };
  switch (workload) {
    case Workload::kGitPush:
      add(Op::kPush, 8);
      add(Op::kFetch, 2);
      break;
    case Workload::kGitFetchCheck:
      add(Op::kPush, 10);
      add(Op::kFetch, 36);
      add(Op::kForcedFetch, 4);
      break;
    case Workload::kTlsChurn:
      add(Op::kOfferSession, kSessionOfferPercent / 10);
      add(Op::kFreshSession, 10 - kSessionOfferPercent / 10);
      break;
  }
  return block;
}

}  // namespace

struct ClientFleet::Client {
  int index = 0;
  std::string repo;
  seal::SplitMix64 rng{0};
  uint64_t seq = 0;
  seal::tls::TlsConfig tls = ClientTls();  // outlives `conn`
  std::map<std::string, std::string> refs;  // the client's model of its repository
  std::unique_ptr<seal::services::HttpsClient> conn;  // Git keep-alive connection
  seal::services::ClientSessionStore sessions;        // tls-churn session cache
  std::vector<Op> block;  // the rest of the current mix block

  Op NextOp(Workload workload) {
    if (block.empty()) {
      block = MixBlock(workload);
      for (size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[rng.Below(i + 1)]);
      }
    }
    Op op = block.back();
    block.pop_back();
    return op;
  }
};

ClientFleet::ClientFleet(Workload workload, uint64_t seed, seal::net::Network* network,
                         TraceRecorder* recorder)
    : workload_(workload), network_(network), recorder_(recorder) {
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<Client>();
    client->index = c;
    client->repo = "repo-" + std::to_string(c);
    client->rng = seal::SplitMix64(StreamSeed(seed, workload, c));
    clients_.push_back(std::move(client));
  }
}

ClientFleet::~ClientFleet() { Close(); }

namespace {

// One generated Git request and what its response must show.
struct Exchange {
  seal::http::HttpRequest request;
  bool is_push = false;
  bool forced = false;
  std::string branch, cid;  // the pushed update
};

// Returns the failure description, or an empty string when the response is
// correct.
std::string CheckGitResponse(const Exchange& ex, const seal::http::HttpResponse& rsp,
                             const std::map<std::string, std::string>& refs) {
  if (rsp.status != 200) {
    return "HTTP " + std::to_string(rsp.status);
  }
  if (ex.is_push) {
    return rsp.body == "ok" ? "" : "push not acknowledged";
  }
  if (seal::services::ParseAdvertisement(rsp.body) != refs) {
    return "advertisement differs from the client's refs";
  }
  if (ex.forced) {
    const std::string* result = rsp.GetHeader("Libseal-Check-Result");
    if (result == nullptr) {
      return "forced check without Libseal-Check-Result";
    }
    if (result->rfind("ok ", 0) != 0) {
      return "check on honest traffic reported: " + *result;
    }
  }
  return "";
}

}  // namespace

seal::Status ClientFleet::Prepare() {
  for (auto& client : clients_) {
    Client& c = *client;
    if (IsGit(workload_)) {
      auto conn = seal::services::HttpsClient::Connect(network_, kServerAddress, c.tls);
      if (!conn.ok()) {
        return conn.status();
      }
      c.conn = std::move(*conn);
      std::map<std::string, std::string> updates;
      for (int b = 0; b < kBranches; ++b) {
        updates["branch-" + std::to_string(b)] = Hex40(c.rng);
      }
      seal::http::HttpRequest push = seal::services::MakeGitPush(c.repo, updates);
      push.SetHeader(kRequestIdHeader, std::to_string(MakeRequestId(c.index, c.seq++)));
      auto rsp = c.conn->RoundTrip(push);
      if (!rsp.ok() || rsp->status != 200) {
        return seal::Internal("seeding push failed for " + c.repo);
      }
      c.refs = updates;
      seal::http::HttpRequest fetch = seal::services::MakeGitFetch(c.repo);
      fetch.SetHeader(kRequestIdHeader, std::to_string(MakeRequestId(c.index, c.seq++)));
      rsp = c.conn->RoundTrip(fetch);
      if (!rsp.ok() || seal::services::ParseAdvertisement(rsp->body) != c.refs) {
        return seal::Internal("seeded repository does not read back for " + c.repo);
      }
    } else {
      seal::http::HttpRequest get = seal::services::MakeContentRequest(kStaticBytes);
      get.SetHeader(kRequestIdHeader, std::to_string(MakeRequestId(c.index, c.seq++)));
      auto rsp = seal::services::OneShotRequest(network_, kServerAddress, c.tls, get, 0, 0,
                                                &c.sessions);
      if (!rsp.ok() || rsp->status != 200 || rsp->body.size() != kStaticBytes) {
        return seal::Internal("warm-up request failed");
      }
    }
  }
  return seal::Status::Ok();
}

LoadStats ClientFleet::Run(double seconds, int windows) {
  std::vector<LoadStats> per_client(clients_.size());
  std::latch ready(static_cast<ptrdiff_t>(clients_.size()) + 1);
  std::latch go(1);
  int64_t t0 = 0;
  int64_t deadline = 0;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients_.size(); ++i) {
    threads.emplace_back([&, i] {
      Client& c = *clients_[i];
      LoadStats& stats = per_client[i];
      ready.count_down();
      go.wait();
      while (NowNanos() < deadline) {
        const uint64_t rid = MakeRequestId(c.index, c.seq++);
        std::string error;
        int64_t start = 0;
        int64_t end = 0;
        ++stats.attempted;
        const Op op = c.NextOp(workload_);
        if (IsGit(workload_)) {
          Exchange ex;
          if (op == Op::kPush) {
            ex.is_push = true;
            ex.branch = "branch-" + std::to_string(c.rng.Below(kBranches));
            ex.cid = Hex40(c.rng);
            ex.request = seal::services::MakeGitPush(c.repo, {{ex.branch, ex.cid}});
            ++stats.pushes;
          } else {
            ex.forced = op == Op::kForcedFetch;
            ex.request = seal::services::MakeGitFetch(c.repo, ex.forced);
            ++stats.fetches;
            stats.forced_checks += ex.forced ? 1 : 0;
          }
          ex.request.SetHeader(kRequestIdHeader, std::to_string(rid));
          if (c.conn == nullptr) {
            auto conn = seal::services::HttpsClient::Connect(network_, kServerAddress, c.tls);
            if (conn.ok()) {
              c.conn = std::move(*conn);
            }
          }
          start = NowNanos();
          auto rsp = c.conn != nullptr ? c.conn->RoundTrip(ex.request)
                                       : seal::Result<seal::http::HttpResponse>(
                                             seal::Unavailable("not connected"));
          end = NowNanos();
          if (!rsp.ok()) {
            error = rsp.status().ToString();
            c.conn.reset();
          } else {
            if (ex.is_push && rsp->status == 200) {
              c.refs[ex.branch] = ex.cid;
            }
            error = CheckGitResponse(ex, *rsp, c.refs);
          }
        } else {
          const bool offer = op == Op::kOfferSession;
          if (offer && c.sessions.Lookup(kServerAddress).valid()) {
            ++stats.sessions_offered;
          }
          seal::http::HttpRequest get = seal::services::MakeContentRequest(kStaticBytes);
          get.SetHeader(kRequestIdHeader, std::to_string(rid));
          start = NowNanos();
          auto conn = seal::services::HttpsClient::Connect(network_, kServerAddress, c.tls, 0, 0,
                                                           offer ? &c.sessions : nullptr);
          seal::Result<seal::http::HttpResponse> rsp =
              conn.ok() ? (*conn)->RoundTrip(get)
                        : seal::Result<seal::http::HttpResponse>(conn.status());
          if (conn.ok()) {
            (*conn)->Close();
          }
          end = NowNanos();
          if (!rsp.ok()) {
            error = rsp.status().ToString();
          } else if (rsp->status != 200 || rsp->body.size() != kStaticBytes ||
                     rsp->body.find_first_not_of('x') != std::string::npos) {
            error = "static response is not a 200 with exactly 1 KiB";
          }
        }
        if (error.empty()) {
          stats.completions.push_back(Completion{end - t0, end - start});
          if (recorder_ != nullptr) {
            recorder_->AddClientSpan(rid, start, end);
          }
        } else {
          ++stats.failed;
          if (stats.errors.size() < kMaxErrorsKept) {
            stats.errors.push_back(std::string(WorkloadName(workload_)) + " client " +
                                   std::to_string(c.index) + ": " + error);
          }
        }
      }
    });
  }
  LoadStats total;
  total.window_s = seconds / windows;
  ready.arrive_and_wait();
  t0 = NowNanos();
  deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  total.window_cpu_ns.push_back(ProcessCpuNanos());
  go.count_down();
  for (int w = 1; w <= windows; ++w) {
    seal::SleepNanos(t0 + static_cast<int64_t>(w * total.window_s * 1e9) - NowNanos());
    total.window_cpu_ns.push_back(ProcessCpuNanos());
  }
  for (auto& t : threads) {
    t.join();
  }
  total.elapsed_s = static_cast<double>(NowNanos() - t0) / 1e9;
  for (LoadStats& s : per_client) {
    total.attempted += s.attempted;
    total.failed += s.failed;
    total.pushes += s.pushes;
    total.fetches += s.fetches;
    total.forced_checks += s.forced_checks;
    total.sessions_offered += s.sessions_offered;
    total.completions.insert(total.completions.end(), s.completions.begin(),
                             s.completions.end());
    for (std::string& e : s.errors) {
      if (total.errors.size() < kMaxErrorsKept) {
        total.errors.push_back(std::move(e));
      }
    }
  }
  return total;
}

seal::Result<std::string> ClientFleet::ProbeForcedFetch() {
  Client& c = *clients_.front();
  if (c.conn == nullptr) {
    return seal::FailedPrecondition("probe client is not connected");
  }
  seal::http::HttpRequest fetch = seal::services::MakeGitFetch(c.repo, /*libseal_check=*/true);
  fetch.SetHeader(kRequestIdHeader, std::to_string(MakeRequestId(c.index, c.seq++)));
  auto rsp = c.conn->RoundTrip(fetch);
  if (!rsp.ok()) {
    return rsp.status();
  }
  const std::string* result = rsp->GetHeader("Libseal-Check-Result");
  return result == nullptr ? std::string("(no Libseal-Check-Result)") : *result;
}

void ClientFleet::Close() {
  for (auto& c : clients_) {
    if (c->conn != nullptr) {
      c->conn->Close();
      c->conn.reset();
    }
  }
}

}  // namespace auditbench

// Traced mode: spans recorded from the benchmark's own files, around the
// calls into each layer, without touching the program.
//
//   * TracingTransport decorates the server's ServerTransport. Its
//     connections record `libseal.handshake`, `libseal.read` and
//     `libseal.write` spans around the LibSEAL connection API, and wrap the
//     accepted net::Stream so the time blocked in the network (`net.read`,
//     `net.write`, children of the enclosing libseal span) can be taken out
//     of each libseal span's self time.
//   * TraceHandler wraps the HTTP handler in a `services.handler` span.
//   * Clients record one `client.rtt` span per request.
//
// Spans of one request share its request id (the X-Bench-Rid header).
// Everything is kept in memory and written out when the run ends. The
// decorator also captures each request/response pair as the plaintext
// LibSEAL saw, for the offline replay.
//
// The request id reaches the connection's spans through a thread-local set
// by the connection's calls: this relies on the server's default blocking
// worker pool, which serves one connection on one thread at a time.
#ifndef AUDITBENCH_TRACE_H_
#define AUDITBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/services/http_server.h"
#include "src/services/transport.h"

namespace auditbench {

struct Span {
  const char* name = "";  // static string
  int64_t start = 0;      // NowNanos
  int64_t end = 0;
  int64_t id = 0;
  int64_t parent = -1;    // span id, -1 = none
  uint64_t rid = 0;       // request id, 0 = none
};

struct CapturedPair {
  std::string request;   // plaintext as LibSEAL read it
  std::string response;  // plaintext as the server wrote it
};

class TraceRecorder {
 public:
  explicit TraceRecorder(bool capture_pairs) : capture_pairs_(capture_pairs) {}

  // Adds one request's server spans; `parent` fields index into `spans`
  // and are rewritten to global ids.
  void AddRequest(std::vector<Span> spans, uint64_t rid, CapturedPair pair);
  void AddClientSpan(uint64_t rid, int64_t start, int64_t end);

  bool capture_pairs() const { return capture_pairs_; }
  // Safe while connections are still being served.
  size_t PairCount() const;
  // Valid once every connection and client has finished.
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<CapturedPair>& pairs() const { return pairs_; }

  // One span per line: id, name, start, end, parent, rid (tab-separated).
  seal::Status WriteTsv(const std::string& path) const;

 private:
  const bool capture_pairs_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<CapturedPair> pairs_;
  int64_t next_id_ = 1;
};

class TracingTransport : public seal::services::ServerTransport {
 public:
  TracingTransport(seal::services::ServerTransport* inner, TraceRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}
  std::unique_ptr<seal::services::ServerConnection> Wrap(seal::net::StreamPtr stream) override;

 private:
  seal::services::ServerTransport* inner_;
  TraceRecorder* recorder_;
};

// Wraps `inner` in a `services.handler` span attached to the connection
// being served on this thread, and tags that request with its id.
seal::services::HttpHandler TraceHandler(seal::services::HttpHandler inner);

// The request id a client put in kRequestIdHeader (0 when absent).
uint64_t RequestIdOf(const seal::http::HttpRequest& request);

// Per-request attribution, in microseconds, computed from the spans. Self
// time of a libseal span excludes its net children.
struct RequestBreakdown {
  double handshake_us = 0;
  double read_us = 0;
  double handler_us = 0;
  double write_us = 0;
  double rtt_us = 0;
  double unattributed_us = 0;  // rtt minus the four server figures above
  bool has_handshake = false;
};

// Joins server and client spans by request id. Requests missing either
// side (none on a clean run) are skipped.
std::vector<RequestBreakdown> BreakDown(const std::vector<Span>& spans);

}  // namespace auditbench

#endif  // AUDITBENCH_TRACE_H_

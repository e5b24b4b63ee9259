#include "trace.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "bench.h"
#include "src/common/clock.h"

namespace auditbench {

using seal::NowNanos;

namespace {

// The spans of the request currently in flight on one server connection,
// shared by the connection decorator and its stream wrapper.
struct ConnTrace {
  std::mutex mutex;
  std::vector<Span> pending;  // parent fields index into this vector
  int64_t open = -1;          // index of the open libseal span
  uint64_t rid = 0;
  CapturedPair pair;

  size_t Open(const char* name) {
    std::lock_guard<std::mutex> lock(mutex);
    pending.push_back(Span{name, NowNanos(), 0, 0, -1, 0});
    open = static_cast<int64_t>(pending.size()) - 1;
    return pending.size() - 1;
  }
  void Close(size_t index) {
    int64_t end = NowNanos();
    std::lock_guard<std::mutex> lock(mutex);
    pending[index].end = end;
    open = -1;
  }
  void Add(const char* name, int64_t start, int64_t end, bool child_of_open) {
    std::lock_guard<std::mutex> lock(mutex);
    pending.push_back(Span{name, start, end, 0, child_of_open ? open : -1, 0});
  }
};

// The connection whose call is running on this server thread (see the
// blocking-pool note in trace.h).
thread_local ConnTrace* t_serving = nullptr;

// Forwards to the accepted stream and records the time spent in it. Holds
// the original stream, so HttpServer's abort-on-stop still reaches the
// pipes it registered.
class TimedStream : public seal::net::Stream {
 public:
  TimedStream(seal::net::StreamPtr inner, std::shared_ptr<ConnTrace> trace)
      : inner_(std::move(inner)), trace_(std::move(trace)) {}

  using Stream::Write;
  void Write(seal::BytesView data) override {
    int64_t start = NowNanos();
    inner_->Write(data);
    trace_->Add("net.write", start, NowNanos(), /*child_of_open=*/true);
  }
  size_t Read(uint8_t* buf, size_t max) override {
    int64_t start = NowNanos();
    size_t n = inner_->Read(buf, max);
    trace_->Add("net.read", start, NowNanos(), /*child_of_open=*/true);
    return n;
  }
  void Close() override { inner_->Close(); }
  void Abort() override { inner_->Abort(); }

 private:
  seal::net::StreamPtr inner_;
  std::shared_ptr<ConnTrace> trace_;
};

class TracedConnection : public seal::services::ServerConnection {
 public:
  TracedConnection(std::unique_ptr<seal::services::ServerConnection> inner,
                   std::shared_ptr<ConnTrace> trace, TraceRecorder* recorder)
      : inner_(std::move(inner)), trace_(std::move(trace)), recorder_(recorder) {}
  ~TracedConnection() override {
    if (t_serving == trace_.get()) {
      t_serving = nullptr;
    }
  }

  int Handshake() override {
    t_serving = trace_.get();
    size_t span = trace_->Open("libseal.handshake");
    int result = inner_->Handshake();
    trace_->Close(span);
    return result;
  }
  int Read(uint8_t* buf, int len) override {
    t_serving = trace_.get();
    size_t span = trace_->Open("libseal.read");
    int n = inner_->Read(buf, len);
    trace_->Close(span);
    if (n > 0 && recorder_->capture_pairs()) {
      std::lock_guard<std::mutex> lock(trace_->mutex);
      trace_->pair.request.append(reinterpret_cast<const char*>(buf), static_cast<size_t>(n));
    }
    return n;
  }
  // The server writes each response in one call, so a write ends the
  // request: its spans and pair go to the recorder.
  int Write(const uint8_t* buf, int len) override {
    t_serving = trace_.get();
    size_t span = trace_->Open("libseal.write");
    int result = inner_->Write(buf, len);
    trace_->Close(span);
    std::vector<Span> spans;
    CapturedPair pair;
    uint64_t rid = 0;
    {
      std::lock_guard<std::mutex> lock(trace_->mutex);
      if (recorder_->capture_pairs() && len > 0) {
        trace_->pair.response.assign(reinterpret_cast<const char*>(buf),
                                     static_cast<size_t>(len));
      }
      spans.swap(trace_->pending);
      pair = std::move(trace_->pair);
      trace_->pair = CapturedPair{};
      rid = trace_->rid;
      trace_->rid = 0;
    }
    recorder_->AddRequest(std::move(spans), rid, std::move(pair));
    return result;
  }
  void Close() override { inner_->Close(); }
  seal::Bytes session_id() const override { return inner_->session_id(); }

 private:
  std::unique_ptr<seal::services::ServerConnection> inner_;
  std::shared_ptr<ConnTrace> trace_;
  TraceRecorder* recorder_;
};

}  // namespace

void TraceRecorder::AddRequest(std::vector<Span> spans, uint64_t rid, CapturedPair pair) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t base = next_id_;
  next_id_ += static_cast<int64_t>(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    Span& span = spans[i];
    span.id = base + static_cast<int64_t>(i);
    span.parent = span.parent >= 0 ? base + span.parent : -1;
    span.rid = rid;
    spans_.push_back(span);
  }
  if (capture_pairs_ && !pair.request.empty()) {
    pairs_.push_back(std::move(pair));
  }
}

size_t TraceRecorder::PairCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pairs_.size();
}

void TraceRecorder::AddClientSpan(uint64_t rid, int64_t start, int64_t end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{"client.rtt", start, end, next_id_++, -1, rid});
}

seal::Status TraceRecorder::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return seal::Internal("cannot write " + path);
  }
  std::fprintf(out, "id\tname\tstart_ns\tend_ns\tparent\trid\n");
  for (const Span& s : spans_) {
    std::fprintf(out, "%lld\t%s\t%lld\t%lld\t%lld\t%llu\n", static_cast<long long>(s.id), s.name,
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.rid));
  }
  return std::fclose(out) == 0 ? seal::Status::Ok() : seal::Internal("short write to " + path);
}

std::unique_ptr<seal::services::ServerConnection> TracingTransport::Wrap(
    seal::net::StreamPtr stream) {
  auto trace = std::make_shared<ConnTrace>();
  auto timed = std::make_unique<TimedStream>(std::move(stream), trace);
  return std::make_unique<TracedConnection>(inner_->Wrap(std::move(timed)), std::move(trace),
                                            recorder_);
}

seal::services::HttpHandler TraceHandler(seal::services::HttpHandler inner) {
  return [inner = std::move(inner)](const seal::http::HttpRequest& request) {
    ConnTrace* conn = t_serving;
    int64_t start = NowNanos();
    seal::http::HttpResponse response = inner(request);
    int64_t end = NowNanos();
    if (conn != nullptr) {
      conn->Add("services.handler", start, end, /*child_of_open=*/false);
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->rid = RequestIdOf(request);
    }
    return response;
  };
}

uint64_t RequestIdOf(const seal::http::HttpRequest& request) {
  const std::string* value = request.GetHeader(kRequestIdHeader);
  return value == nullptr ? 0 : std::strtoull(value->c_str(), nullptr, 10);
}

std::vector<RequestBreakdown> BreakDown(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, int64_t> net_child_nanos;
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      net_child_nanos[s.parent] += s.end - s.start;
    }
  }
  std::unordered_map<uint64_t, RequestBreakdown> by_rid;
  std::unordered_map<uint64_t, bool> has_server;
  for (const Span& s : spans) {
    if (s.rid == 0 || s.parent >= 0) {
      continue;
    }
    auto child = net_child_nanos.find(s.id);
    double self_us =
        static_cast<double>(s.end - s.start - (child == net_child_nanos.end() ? 0 : child->second)) /
        1e3;
    RequestBreakdown& b = by_rid[s.rid];
    std::string_view name = s.name;
    if (name == "client.rtt") {
      b.rtt_us += self_us;
      continue;
    }
    has_server[s.rid] = true;
    if (name == "libseal.handshake") {
      b.handshake_us += self_us;
      b.has_handshake = true;
    } else if (name == "libseal.read") {
      b.read_us += self_us;
    } else if (name == "libseal.write") {
      b.write_us += self_us;
    } else if (name == "services.handler") {
      b.handler_us += self_us;
    }
  }
  std::vector<RequestBreakdown> out;
  out.reserve(by_rid.size());
  for (auto& [rid, b] : by_rid) {
    if (b.rtt_us <= 0 || !has_server[rid]) {
      continue;
    }
    b.unattributed_us = b.rtt_us - b.handshake_us - b.read_us - b.handler_us - b.write_us;
    out.push_back(b);
  }
  return out;
}

}  // namespace auditbench

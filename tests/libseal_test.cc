#include <gtest/gtest.h>

#include <thread>

#include "src/core/libseal.h"
#include "src/services/git_service.h"
#include "src/services/https_client.h"
#include "src/ssm/git_ssm.h"
#include "src/tls/x509.h"

namespace seal::core {
namespace {

struct Pki {
  Pki() {
    ca = tls::MakeSelfSignedCa("LibSEAL Test CA", crypto::EcdsaPrivateKey::FromSeed(ToBytes("ca")));
    server_key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("server"));
    server_cert = tls::IssueCertificate(ca, "service.example", server_key.public_key(), 2);
  }
  tls::CertifiedKey ca;
  crypto::EcdsaPrivateKey server_key;
  tls::Certificate server_cert;
};

Pki& GetPki() {
  static Pki pki;
  return pki;
}

LibSealOptions BaseOptions(bool async) {
  LibSealOptions options;
  options.enclave.inject_costs = false;
  options.use_async_calls = async;
  options.async.enclave_threads = 2;
  options.async.tasks_per_thread = 8;
  options.audit_log.counter_options.inject_latency = false;
  options.logger.check_interval = 0;
  options.tls.certificate = GetPki().server_cert;
  options.tls.private_key = GetPki().server_key;
  return options;
}

tls::TlsConfig ClientConfig() {
  tls::TlsConfig config;
  config.trusted_roots = {GetPki().ca.cert};
  return config;
}

// --- Content-Length framing (HttpMessageBuffer over one buffered chunk) ---

// Feeds `wire` to a fresh framer in one chunk.
HttpMessageBuffer Framer(const std::string& wire) {
  HttpMessageBuffer buffer;
  buffer.Append(wire.data(), wire.size());
  return buffer;
}

TEST(HttpExtract, CompleteMessage) {
  HttpMessageBuffer buffer = Framer("GET / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcLEFTOVER");
  auto msg = buffer.TryExtract();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->substr(msg->size() - 3), "abc");
  EXPECT_EQ(buffer.view(), "LEFTOVER");
}

TEST(HttpExtract, IncompleteHeaders) {
  HttpMessageBuffer buffer = Framer("GET / HTTP/1.1\r\nContent-Le");
  EXPECT_FALSE(buffer.TryExtract().has_value());
  EXPECT_EQ(buffer.size(), 26u);  // untouched
}

TEST(HttpExtract, IncompleteBody) {
  HttpMessageBuffer buffer = Framer("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
  EXPECT_FALSE(buffer.TryExtract().has_value());
  EXPECT_FALSE(buffer.poisoned());
}

TEST(HttpExtract, NoBodyMessage) {
  HttpMessageBuffer buffer = Framer("GET / HTTP/1.1\r\nHost: h\r\n\r\n");
  auto msg = buffer.TryExtract();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(HttpExtract, TwoPipelinedMessages) {
  HttpMessageBuffer buffer = Framer(
      "POST /a HTTP/1.1\r\nContent-Length: 1\r\n\r\nx"
      "POST /b HTTP/1.1\r\nContent-Length: 1\r\n\r\ny");
  auto first = buffer.TryExtract();
  auto second = buffer.TryExtract();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(first->find("/a"), std::string::npos);
  EXPECT_NE(second->find("/b"), std::string::npos);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(HttpExtract, ContentLengthToleratesSurroundingWhitespace) {
  HttpMessageBuffer buffer = Framer("GET / HTTP/1.1\r\nContent-Length: \t 3 \r\n\r\nabc");
  auto msg = buffer.TryExtract();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(HttpExtract, ContentLengthRejectsTrailingGarbage) {
  // strtoul would have read "3" and ignored the rest, desyncing the
  // framing from what a real HTTP parser sees.
  HttpMessageBuffer buffer = Framer("GET / HTTP/1.1\r\nContent-Length: 3x\r\n\r\nabc");
  EXPECT_FALSE(buffer.TryExtract().has_value());
  EXPECT_TRUE(buffer.poisoned());
}

TEST(HttpExtract, ContentLengthRejectsNonNumericAndNegative) {
  for (const char* wire : {"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                           "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
                           "GET / HTTP/1.1\r\nContent-Length:\r\n\r\n"}) {
    HttpMessageBuffer buffer = Framer(wire);
    EXPECT_FALSE(buffer.TryExtract().has_value()) << wire;
    EXPECT_TRUE(buffer.poisoned()) << wire;
  }
}

TEST(HttpExtract, ContentLengthRejectsOverflowAndOversize) {
  // 2^64 + a bit: strtoul silently wrapped this to a small total.
  HttpMessageBuffer overflow =
      Framer("GET / HTTP/1.1\r\nContent-Length: 18446744073709551620\r\n\r\nabc");
  EXPECT_FALSE(overflow.TryExtract().has_value());
  EXPECT_TRUE(overflow.poisoned());
  // Within range but above the audit buffer cap: can never complete.
  HttpMessageBuffer oversize = Framer("GET / HTTP/1.1\r\nContent-Length: " +
                                      std::to_string(kAuditBufferCap + 1) + "\r\n\r\n");
  EXPECT_FALSE(oversize.TryExtract().has_value());
  EXPECT_TRUE(oversize.poisoned());
  EXPECT_EQ(ContentLengthFromHeaders("Content-Length: " + std::to_string(kAuditBufferCap)),
            std::optional<size_t>(kAuditBufferCap));
}

TEST(HttpExtract, LastContentLengthWins) {
  HttpMessageBuffer buffer =
      Framer("GET / HTTP/1.1\r\nContent-Length: 9\r\nContent-Length: 2\r\n\r\nab");
  auto msg = buffer.TryExtract();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(buffer.size(), 0u);
}

// --- HttpMessageBuffer (incremental framer) ---

TEST(HttpMessageBuffer, ExtractsAcrossManySmallChunks) {
  std::string wire =
      "POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello"
      "POST /b HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
  HttpMessageBuffer buffer;
  std::vector<std::string> messages;
  // Byte-at-a-time delivery: the scan offset keeps this O(n) overall.
  for (char c : wire) {
    buffer.Append(&c, 1);
    while (auto msg = buffer.TryExtract()) {
      messages.push_back(std::move(*msg));
    }
  }
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_NE(messages[0].find("/a"), std::string::npos);
  EXPECT_EQ(messages[0].substr(messages[0].size() - 5), "hello");
  EXPECT_NE(messages[1].find("/b"), std::string::npos);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(HttpMessageBuffer, TerminatorStraddlingChunkBoundaryIsFound) {
  HttpMessageBuffer buffer;
  std::string part1 = "GET / HTTP/1.1\r\nHost: h\r";
  std::string part2 = "\n\r\nleftover";
  buffer.Append(part1.data(), part1.size());
  EXPECT_FALSE(buffer.TryExtract().has_value());
  buffer.Append(part2.data(), part2.size());
  auto msg = buffer.TryExtract();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(buffer.view(), "leftover");
}

TEST(HttpMessageBuffer, InvalidContentLengthPoisonsUntilCleared) {
  HttpMessageBuffer buffer;
  std::string wire = "GET / HTTP/1.1\r\nContent-Length: 1e9\r\n\r\nbody";
  buffer.Append(wire.data(), wire.size());
  EXPECT_FALSE(buffer.TryExtract().has_value());
  EXPECT_TRUE(buffer.poisoned());
  // Poison sticks (no re-framing attempts) until the caller clears.
  EXPECT_FALSE(buffer.TryExtract().has_value());
  buffer.Clear();
  EXPECT_FALSE(buffer.poisoned());
  EXPECT_EQ(buffer.size(), 0u);
  std::string good = "GET / HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
  buffer.Append(good.data(), good.size());
  EXPECT_TRUE(buffer.TryExtract().has_value());
}

// --- runtime round trips ---

class LibSealParamTest : public ::testing::TestWithParam<bool> {};

TEST_P(LibSealParamTest, HandshakeAndEcho) {
  LibSealRuntime runtime(BaseOptions(GetParam()), nullptr);
  ASSERT_TRUE(runtime.Init().ok());
  auto [client_stream, server_stream] = net::CreateStreamPair();

  std::thread server_thread([&, &server_stream = server_stream] {
    LibSealSsl* ssl = runtime.SslNew(server_stream.get(), tls::Role::kServer);
    ASSERT_NE(ssl, nullptr);
    EXPECT_EQ(ssl->handshake_done, 0);
    ASSERT_EQ(runtime.SslHandshake(ssl), 1);
    EXPECT_EQ(ssl->handshake_done, 1);  // shadow field synchronised
    uint8_t buf[64];
    int n = runtime.SslRead(ssl, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    EXPECT_EQ(runtime.SslWrite(ssl, buf, n), n);
    EXPECT_EQ(ssl->bytes_read, static_cast<uint64_t>(n));
    EXPECT_EQ(ssl->bytes_written, static_cast<uint64_t>(n));
    runtime.SslShutdown(ssl);
    runtime.SslFree(ssl);
  });

  tls::StreamBio bio(client_stream.get());
  tls::TlsConfig client_config = ClientConfig();
  tls::TlsConnection client(&bio, &client_config, tls::Role::kClient);
  ASSERT_TRUE(client.Handshake().ok());
  ASSERT_TRUE(client.Write(std::string_view("ping!")).ok());
  uint8_t buf[64];
  auto n = client.Read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), *n), "ping!");
  server_thread.join();
  runtime.Shutdown();
}

TEST_P(LibSealParamTest, ClientSeesEnclaveCertificate) {
  LibSealRuntime runtime(BaseOptions(GetParam()), nullptr);
  ASSERT_TRUE(runtime.Init().ok());
  auto [client_stream, server_stream] = net::CreateStreamPair();
  std::thread server_thread([&, &server_stream = server_stream] {
    LibSealSsl* ssl = runtime.SslNew(server_stream.get(), tls::Role::kServer);
    ASSERT_EQ(runtime.SslHandshake(ssl), 1);
    runtime.SslFree(ssl);
  });
  tls::StreamBio bio(client_stream.get());
  tls::TlsConfig client_config = ClientConfig();
  tls::TlsConnection client(&bio, &client_config, tls::Role::kClient);
  ASSERT_TRUE(client.Handshake().ok());
  ASSERT_TRUE(client.peer_certificate().has_value());
  EXPECT_EQ(client.peer_certificate()->subject, "service.example");
  server_thread.join();
}

INSTANTIATE_TEST_SUITE_P(SyncAndAsync, LibSealParamTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "AsyncCalls" : "SyncCalls";
                         });

TEST(LibSeal, ExDataStoredOutside) {
  LibSealRuntime runtime(BaseOptions(false), nullptr);
  ASSERT_TRUE(runtime.Init().ok());
  auto [client_stream, server_stream] = net::CreateStreamPair();
  LibSealSsl* ssl = runtime.SslNew(server_stream.get(), tls::Role::kServer);
  ASSERT_NE(ssl, nullptr);
  int marker = 7;
  EXPECT_EQ(runtime.SslSetExData(ssl, 0, &marker), 1);
  EXPECT_EQ(runtime.SslGetExData(ssl, 0), &marker);
  EXPECT_EQ(runtime.SslGetExData(ssl, 1), nullptr);
  EXPECT_EQ(runtime.SslSetExData(ssl, 99, &marker), 0);  // out of range
  // The data lives in the outside shadow structure, reachable without a
  // transition.
  EXPECT_EQ(ssl->ex_data[0], &marker);
  runtime.SslFree(ssl);
}

TEST(LibSeal, InfoCallbackInvokedOutsideViaTrampoline) {
  static std::vector<int> events;
  events.clear();
  LibSealOptions options = BaseOptions(false);
  LibSealRuntime runtime(options, nullptr);
  runtime.SetInfoCallback([](const LibSealSsl* ssl, int event, int bytes) {
    EXPECT_NE(ssl, nullptr);
    events.push_back(event);
  });
  ASSERT_TRUE(runtime.Init().ok());
  auto [client_stream, server_stream] = net::CreateStreamPair();
  std::thread server_thread([&, &server_stream = server_stream] {
    LibSealSsl* ssl = runtime.SslNew(server_stream.get(), tls::Role::kServer);
    ASSERT_EQ(runtime.SslHandshake(ssl), 1);
    runtime.SslFree(ssl);
  });
  tls::StreamBio bio(client_stream.get());
  tls::TlsConfig client_config = ClientConfig();
  tls::TlsConnection client(&bio, &client_config, tls::Role::kClient);
  ASSERT_TRUE(client.Handshake().ok());
  server_thread.join();
  EXPECT_GE(events.size(), 2u);  // at least handshake start + done
}

TEST(LibSeal, SyncModePaysTransitionsPerCall) {
  LibSealOptions options = BaseOptions(false);
  LibSealRuntime runtime(options, nullptr);
  ASSERT_TRUE(runtime.Init().ok());
  auto [client_stream, server_stream] = net::CreateStreamPair();
  std::thread server_thread([&, &server_stream = server_stream] {
    LibSealSsl* ssl = runtime.SslNew(server_stream.get(), tls::Role::kServer);
    ASSERT_EQ(runtime.SslHandshake(ssl), 1);
    uint8_t buf[16];
    int n = runtime.SslRead(ssl, buf, sizeof(buf));
    runtime.SslWrite(ssl, buf, n);
    runtime.SslFree(ssl);
  });
  tls::StreamBio bio(client_stream.get());
  tls::TlsConfig client_config = ClientConfig();
  tls::TlsConnection client(&bio, &client_config, tls::Role::kClient);
  ASSERT_TRUE(client.Handshake().ok());
  ASSERT_TRUE(client.Write(std::string_view("hi")).ok());
  uint8_t buf[16];
  ASSERT_TRUE(client.Read(buf, sizeof(buf)).ok());
  server_thread.join();
  // Synchronous mode crosses the gate for every SSL_* call and BIO access.
  auto stats = runtime.enclave().stats();
  EXPECT_GE(stats.ecalls, 4u);  // new, handshake, read, write at minimum
  EXPECT_GE(stats.ocalls, 4u);  // BIO traffic during the handshake
}

TEST(LibSeal, AsyncModeAvoidsPerCallTransitions) {
  LibSealOptions options = BaseOptions(true);
  LibSealRuntime runtime(options, nullptr);
  ASSERT_TRUE(runtime.Init().ok());
  auto [client_stream, server_stream] = net::CreateStreamPair();
  std::thread server_thread([&, &server_stream = server_stream] {
    LibSealSsl* ssl = runtime.SslNew(server_stream.get(), tls::Role::kServer);
    ASSERT_EQ(runtime.SslHandshake(ssl), 1);
    uint8_t buf[16];
    int n = runtime.SslRead(ssl, buf, sizeof(buf));
    runtime.SslWrite(ssl, buf, n);
    runtime.SslFree(ssl);
  });
  tls::StreamBio bio(client_stream.get());
  tls::TlsConfig client_config = ClientConfig();
  tls::TlsConnection client(&bio, &client_config, tls::Role::kClient);
  ASSERT_TRUE(client.Handshake().ok());
  ASSERT_TRUE(client.Write(std::string_view("hi")).ok());
  uint8_t buf[16];
  ASSERT_TRUE(client.Read(buf, sizeof(buf)).ok());
  server_thread.join();
  // Only the worker threads entered the enclave; no per-call transitions.
  auto stats = runtime.enclave().stats();
  EXPECT_EQ(stats.ecalls, static_cast<uint64_t>(options.async.enclave_threads));
  EXPECT_EQ(stats.ocalls, 0u);
  runtime.Shutdown();
}

TEST(LibSeal, AttestationQuoteBindsCertificate) {
  LibSealRuntime runtime(BaseOptions(false), nullptr);
  ASSERT_TRUE(runtime.Init().ok());
  sgx::QuotingEnclave qe;
  auto quote = runtime.AttestationQuote(qe);
  ASSERT_TRUE(quote.ok());
  sgx::AttestationService ias;
  ias.TrustPlatform(qe.platform_key());
  ASSERT_TRUE(ias.VerifyQuote(*quote).ok());
  // The quote's report data is the hash of the TLS certificate the client
  // sees, so a client can check it is talking to a genuine LibSEAL.
  crypto::Sha256Digest expected = crypto::Sha256::Hash(GetPki().server_cert.Encode());
  EXPECT_EQ(ToHex(quote->report_data), ToHex(BytesView(expected.data(), expected.size())));
}

// --- audited end-to-end flow with the Git SSM ---

TEST(LibSealAudit, LogsPairsAndAnswersCheckHeader) {
  LibSealOptions options = BaseOptions(false);
  options.logger.check_interval = 0;  // only client-triggered checks
  LibSealRuntime runtime(options, std::make_unique<ssm::GitModule>());
  ASSERT_TRUE(runtime.Init().ok());
  services::GitBackend backend;

  auto [client_stream, server_stream] = net::CreateStreamPair();
  std::thread server_thread([&, &server_stream = server_stream] {
    LibSealSsl* ssl = runtime.SslNew(server_stream.get(), tls::Role::kServer);
    ASSERT_EQ(runtime.SslHandshake(ssl), 1);
    // Minimal HTTP server loop over the LibSEAL API.
    for (;;) {
      auto raw = http::ReadHttpMessage([&](uint8_t* buf, size_t max) {
        int n = runtime.SslRead(ssl, buf, static_cast<int>(max));
        return n <= 0 ? size_t{0} : static_cast<size_t>(n);
      });
      if (!raw.ok()) {
        break;
      }
      auto request = http::ParseRequest(*raw);
      ASSERT_TRUE(request.ok());
      std::string wire = backend.Handle(*request).Serialize();
      ASSERT_GT(runtime.SslWrite(ssl, reinterpret_cast<const uint8_t*>(wire.data()),
                                 static_cast<int>(wire.size())),
                0);
    }
    runtime.SslFree(ssl);
  });

  tls::StreamBio bio(client_stream.get());
  tls::TlsConfig client_config = ClientConfig();
  tls::TlsConnection client(&bio, &client_config, tls::Role::kClient);
  ASSERT_TRUE(client.Handshake().ok());

  auto round_trip = [&](const http::HttpRequest& req) -> http::HttpResponse {
    std::string wire = req.Serialize();
    EXPECT_TRUE(client.Write(wire).ok());
    auto raw = http::ReadHttpMessage([&](uint8_t* buf, size_t max) {
      auto n = client.Read(buf, max);
      return n.ok() ? *n : size_t{0};
    });
    EXPECT_TRUE(raw.ok());
    auto rsp = http::ParseResponse(*raw);
    EXPECT_TRUE(rsp.ok());
    return *rsp;
  };

  // Clean history.
  round_trip(services::MakeGitPush("repo", {{"main", "c1"}}));
  round_trip(services::MakeGitPush("repo", {{"main", "c2"}}));
  http::HttpResponse clean = round_trip(services::MakeGitFetch("repo", /*libseal_check=*/true));
  const std::string* clean_result = clean.GetHeader("Libseal-Check-Result");
  ASSERT_NE(clean_result, nullptr);
  EXPECT_EQ(clean_result->rfind("ok", 0), 0u) << *clean_result;

  // Rollback attack: the header must now announce a violation.
  backend.set_attack(services::GitBackend::Attack::kRollback);
  http::HttpResponse dirty = round_trip(services::MakeGitFetch("repo", /*libseal_check=*/true));
  const std::string* dirty_result = dirty.GetHeader("Libseal-Check-Result");
  ASSERT_NE(dirty_result, nullptr);
  EXPECT_NE(dirty_result->find("VIOLATION"), std::string::npos) << *dirty_result;
  EXPECT_NE(dirty_result->find("git-soundness"), std::string::npos);

  client.Close();
  client_stream->Close();
  server_thread.join();

  // The audit log recorded all four pairs' tuples.
  EXPECT_EQ(runtime.logger()->pairs_logged(), 4);
  EXPECT_GT(runtime.logger()->log().entry_count(), 0u);
}

}  // namespace
}  // namespace seal::core

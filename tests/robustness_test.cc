// Robustness: hostile and malformed inputs must produce clean errors,
// never crashes, hangs, or bogus audit entries. Random-input sweeps use
// deterministic seeds so failures reproduce.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "src/common/rng.h"
#include "src/core/log_segment.h"
#include "src/core/logger.h"
#include "src/db/database.h"
#include "src/db/parser.h"
#include "src/http/http.h"
#include "src/json/json.h"
#include "src/net/net.h"
#include "src/ssm/dropbox_ssm.h"
#include "src/ssm/git_ssm.h"
#include "src/ssm/messaging_ssm.h"
#include "src/ssm/owncloud_ssm.h"
#include "src/tls/tls.h"
#include "src/tls/x509.h"

namespace seal {
namespace {

std::string RandomGarbage(SplitMix64& rng, size_t max_len) {
  std::string s;
  size_t n = rng.Below(max_len);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng.Next()));
  }
  return s;
}

std::string RandomSqlish(SplitMix64& rng) {
  static const char* kFragments[] = {
      "SELECT", "FROM",  "WHERE",    "GROUP BY", "ORDER",  "(",     ")",      ",",
      "*",      "t",     "a.b",      "COUNT",    "'str",   "123",   "1.5.2",  "=",
      "!=",     "IN",    "NOT",      "NULL",     "JOIN",   "ON",    ";",      "--x",
      "LIMIT",  "VALUES", "INSERT",  "DELETE",   "\"id",   "||",    "BETWEEN"};
  std::string s;
  size_t n = rng.Below(12) + 1;
  for (size_t i = 0; i < n; ++i) {
    s += kFragments[rng.Below(std::size(kFragments))];
    s.push_back(' ');
  }
  return s;
}

TEST(Robustness, SqlParserNeverCrashesOnGarbage) {
  SplitMix64 rng(42);
  for (int i = 0; i < 3000; ++i) {
    std::string input = (i % 2 == 0) ? RandomGarbage(rng, 120) : RandomSqlish(rng);
    auto result = db::ParseStatement(input);  // must return, ok or not
    (void)result;
  }
}

TEST(Robustness, DatabaseExecuteNeverCrashesOnGarbage) {
  db::Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t(a, b)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'x')").ok());
  SplitMix64 rng(43);
  for (int i = 0; i < 1500; ++i) {
    (void)db.Execute(RandomSqlish(rng));
  }
  // The table survived the bombardment.
  auto rows = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].AsInt(), 1);
}

TEST(Robustness, ExecutorErrorPaths) {
  db::Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t(a)").ok());
  // Name resolution happens during row evaluation (seadb is an
  // interpreter), so the table must be non-empty for these to trip.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(db.Execute("SELECT nope FROM t").ok());            // unknown column
  EXPECT_FALSE(db.Execute("SELECT x.a FROM t").ok());             // unknown qualifier
  EXPECT_FALSE(db.Execute("SELECT * FROM missing").ok());         // unknown table
  EXPECT_FALSE(db.Execute("INSERT INTO t(nope) VALUES (1)").ok());
  EXPECT_FALSE(db.Execute("DELETE FROM missing").ok());
  EXPECT_FALSE(db.Execute("UPDATE t SET nope = 1").ok());
  EXPECT_FALSE(db.Execute("SELECT MAX(a) FROM t WHERE MAX(a) = 1").ok());  // aggregate in WHERE
}

TEST(Robustness, JsonParserNeverCrashesOnGarbage) {
  SplitMix64 rng(44);
  for (int i = 0; i < 3000; ++i) {
    (void)json::Parse(RandomGarbage(rng, 150));
  }
  // Deeply nested input parses or errors without stack issues.
  std::string deep(2000, '[');
  (void)json::Parse(deep);
}

TEST(Robustness, HttpParserNeverCrashesOnGarbage) {
  SplitMix64 rng(45);
  for (int i = 0; i < 3000; ++i) {
    std::string g = RandomGarbage(rng, 200);
    (void)http::ParseRequest(g);
    (void)http::ParseResponse(g);
  }
}

TEST(Robustness, SsmsIgnoreGarbagePairsAcrossAllModules) {
  std::vector<std::unique_ptr<core::ServiceModule>> modules;
  modules.push_back(std::make_unique<ssm::GitModule>());
  modules.push_back(std::make_unique<ssm::OwnCloudModule>());
  modules.push_back(std::make_unique<ssm::DropboxModule>());
  modules.push_back(std::make_unique<ssm::MessagingModule>());
  SplitMix64 rng(46);
  for (auto& module : modules) {
    for (int i = 0; i < 300; ++i) {
      std::vector<core::LogTuple> tuples;
      module->Log(RandomGarbage(rng, 150), RandomGarbage(rng, 150), i + 1, &tuples);
      EXPECT_TRUE(tuples.empty()) << module->name() << " logged tuples for garbage";
    }
    // Half-valid: a real-looking request with a garbage response.
    std::vector<core::LogTuple> tuples;
    module->Log("GET /repo/info/refs HTTP/1.1\r\n\r\n", RandomGarbage(rng, 80), 1, &tuples);
    // No crash; whatever is logged must match the schema arity + 1 (time).
  }
}

TEST(Robustness, SsmsTolerateValidHttpWithWrongJson) {
  ssm::DropboxModule dropbox;
  std::vector<core::LogTuple> tuples;
  http::HttpRequest req;
  req.method = "POST";
  req.target = "/commit_batch";
  req.body = "{not json";
  http::HttpResponse rsp;
  dropbox.Log(req.Serialize(), rsp.Serialize(), 1, &tuples);
  EXPECT_TRUE(tuples.empty());
  // Valid JSON of the wrong shape: no commits array.
  req.body = R"({"account": 5, "commits": "not-an-array"})";
  dropbox.Log(req.Serialize(), rsp.Serialize(), 2, &tuples);
  EXPECT_TRUE(tuples.empty());
}

TEST(Robustness, TlsServerRejectsGarbageClients) {
  tls::CertifiedKey ca =
      tls::MakeSelfSignedCa("Rob CA", crypto::EcdsaPrivateKey::FromSeed(ToBytes("ca")));
  crypto::EcdsaPrivateKey key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("srv"));
  tls::Certificate cert = tls::IssueCertificate(ca, "rob", key.public_key(), 2);
  SplitMix64 rng(47);
  for (int trial = 0; trial < 10; ++trial) {
    auto [client_stream, server_stream] = net::CreateStreamPair();
    tls::StreamBio server_bio(server_stream.get());
    tls::TlsConfig server_config;
    server_config.certificate = cert;
    server_config.private_key = key;
    tls::TlsConnection server(&server_bio, &server_config, tls::Role::kServer);
    std::thread garbage_client([&, &client_stream = client_stream] {
      // A syntactically valid record header with random contents, then
      // random bytes, then close.
      Bytes junk = ToBytes(RandomGarbage(rng, 200));
      Bytes frame = {22, 3, 3, 0, static_cast<uint8_t>(junk.size())};
      client_stream->Write(frame);
      client_stream->Write(junk);
      client_stream->Close();
    });
    EXPECT_FALSE(server.Handshake().ok());
    garbage_client.join();
  }
}

TEST(Robustness, TlsClientRejectsGarbageServer) {
  tls::CertifiedKey ca =
      tls::MakeSelfSignedCa("Rob CA", crypto::EcdsaPrivateKey::FromSeed(ToBytes("ca")));
  auto [client_stream, server_stream] = net::CreateStreamPair();
  tls::StreamBio client_bio(client_stream.get());
  tls::TlsConfig client_config;
  client_config.trusted_roots = {ca.cert};
  tls::TlsConnection client(&client_bio, &client_config, tls::Role::kClient);
  std::thread fake_server([&, &server_stream = server_stream] {
    uint8_t buf[1024];
    (void)server_stream->Read(buf, sizeof(buf));  // swallow ClientHello
    server_stream->Write(std::string_view("definitely not TLS"));
    server_stream->Close();
  });
  EXPECT_FALSE(client.Handshake().ok());
  fake_server.join();
}

TEST(Robustness, CorruptLogEntriesRejectedNotCrashing) {
  SplitMix64 rng(48);
  for (int trial = 0; trial < 500; ++trial) {
    std::string g = RandomGarbage(rng, 100);
    Bytes bytes(g.begin(), g.end());
    size_t off = 0;
    (void)core::LogEntry::Deserialize(bytes, off);
  }
}

TEST(Robustness, MalformedSegmentHeadersRejected) {
  core::SegmentHeader header;
  header.index = 3;
  header.prev_head = Bytes(32, 0xab);
  header.first_ticket = 7;
  const Bytes wire = header.Encode();
  ASSERT_EQ(wire.size(), core::kSegmentHeaderSize);
  ASSERT_TRUE(core::SegmentHeader::Decode(wire).ok());
  // A header cut off at any length.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(core::SegmentHeader::Decode(BytesView(wire).subspan(0, len)).ok())
        << "header truncated to " << len << " bytes decoded";
  }
  // One field at a time: magic "SEALSEG1" -> "SEALSEG2", version 1 -> 2,
  // reserved word (after the closed flag) 0 -> 1.
  auto decode_with = [&](size_t offset, uint8_t value) {
    Bytes patched = wire;
    patched[offset] = value;
    return core::SegmentHeader::Decode(patched).status();
  };
  EXPECT_NE(decode_with(7, '2').message().find("magic"), std::string::npos);
  EXPECT_NE(decode_with(11, 2).message().find("version"), std::string::npos);
  EXPECT_NE(decode_with(23, 1).message().find("reserved"), std::string::npos);
}

TEST(Robustness, DatabaseDeserializeFuzz) {
  SplitMix64 rng(49);
  for (int trial = 0; trial < 500; ++trial) {
    std::string g = RandomGarbage(rng, 120);
    Bytes bytes(g.begin(), g.end());
    (void)db::Database::Deserialize(bytes);
  }
}

}  // namespace
}  // namespace seal

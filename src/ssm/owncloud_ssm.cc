#include "src/ssm/owncloud_ssm.h"

#include "src/http/http.h"
#include "src/json/json.h"

namespace seal::ssm {

std::vector<std::string> OwnCloudModule::Schema() const {
  return {
      // Document updates pushed by clients (one row per synchronised edit;
      // the paper reports 124 bytes of constant overhead per update).
      "CREATE TABLE oc_updates(time, doc, session, client, seq, payload)",
      // Snapshots stored by clients leaving a session.
      "CREATE TABLE oc_snapshots(time, doc, session, client, content)",
      // Session joins: what the service served to the new client.
      "CREATE TABLE oc_joins(time, doc, session, client, snapshot, upcount)",
  };
}

std::vector<core::Invariant> OwnCloudModule::Invariants() const {
  return {
      // (i) Snapshot soundness: the snapshot served at a join matches the
      // most recent snapshot any client stored for that document.
      {"owncloud-snapshot-match",
       "SELECT j.time, j.doc FROM oc_joins j WHERE j.snapshot != ("
       "SELECT s.content FROM oc_snapshots s WHERE s.doc = j.doc AND "
       "s.time < j.time ORDER BY s.time DESC LIMIT 1)"},
      // (ii) Update-history completeness: the number of updates served to
      // a joining client equals the number of updates the service received
      // for that session before the join (a dropped edit shows up as a
      // deficit; a fabricated edit as a surplus).
      {"owncloud-update-prefix",
       "SELECT j.time, j.doc FROM oc_joins j WHERE j.upcount != ("
       "SELECT COUNT(*) FROM oc_updates u WHERE u.doc = j.doc AND "
       "u.session = j.session AND u.time < j.time)"},
  };
}

std::vector<std::string> OwnCloudModule::TrimmingQueries() const {
  return {
      // Joins are checked once.
      "DELETE FROM oc_joins",
      // Keep only the most recent snapshot per document.
      "DELETE FROM oc_snapshots WHERE time NOT IN "
      "(SELECT MAX(time) FROM oc_snapshots GROUP BY doc)",
      // Keep only updates of each document's latest session (sessions are
      // globally unique and monotonically increasing).
      "DELETE FROM oc_updates WHERE session NOT IN "
      "(SELECT MAX(session) FROM oc_updates GROUP BY doc)",
  };
}

void OwnCloudModule::Log(std::string_view request, std::string_view response, int64_t time,
                         std::vector<core::LogTuple>* out) {
  auto req = http::ParseRequest(request);
  if (!req.ok()) {
    return;
  }
  if (req->method == "POST" &&
      (req->target == "/docs/sync" || req->target == "/docs/snapshot")) {
    auto body = json::Parse(req->body);
    if (!body.ok()) {
      return;
    }
    // The authoritative session id is the one the service CONFIRMS in its
    // response (clients may send 0 for "current session"); LibSEAL sees
    // both directions, so the log records the confirmed value.
    auto rsp = http::ParseResponse(response);
    if (!rsp.ok() || rsp->status != 200) {
      return;
    }
    auto rsp_body = json::Parse(rsp->body);
    int64_t session = rsp_body.ok() ? rsp_body->Get("session").AsInt() : 0;
    if (req->target == "/docs/sync") {
      out->push_back(core::LogTuple{
          "oc_updates",
          {db::Value(body->Get("doc").AsString()), db::Value(session),
           db::Value(body->Get("client").AsString()), db::Value(body->Get("seq").AsInt()),
           db::Value(body->Get("text").AsString())}});
    } else {
      out->push_back(core::LogTuple{
          "oc_snapshots",
          {db::Value(body->Get("doc").AsString()), db::Value(session),
           db::Value(body->Get("client").AsString()),
           db::Value(body->Get("content").AsString())}});
    }
    return;
  }
  if (req->method == "GET" && req->target.rfind("/docs/join", 0) == 0) {
    auto rsp = http::ParseResponse(response);
    if (!rsp.ok() || rsp->status != 200) {
      return;
    }
    auto body = json::Parse(rsp->body);
    if (!body.ok()) {
      return;
    }
    std::string doc;
    size_t q = req->target.find("doc=");
    if (q != std::string::npos) {
      size_t end = req->target.find('&', q);
      doc = req->target.substr(q + 4, end == std::string::npos ? std::string::npos : end - q - 4);
    }
    std::string client;
    size_t c = req->target.find("client=");
    if (c != std::string::npos) {
      size_t end = req->target.find('&', c);
      client =
          req->target.substr(c + 7, end == std::string::npos ? std::string::npos : end - c - 7);
    }
    out->push_back(core::LogTuple{
        "oc_joins",
        {db::Value(doc), db::Value(body->Get("session").AsInt()), db::Value(client),
         db::Value(body->Get("snapshot").AsString()),
         db::Value(static_cast<int64_t>(body->Get("updates").AsArray().size()))}});
  }
}

}  // namespace seal::ssm

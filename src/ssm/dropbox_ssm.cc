#include "src/ssm/dropbox_ssm.h"

#include "src/http/http.h"
#include "src/json/json.h"

namespace seal::ssm {

std::vector<std::string> DropboxModule::Schema() const {
  // The paper's two relations (§6.2).
  return {
      "CREATE TABLE commit_batch(time, file, blocks, account, host, size)",
      "CREATE TABLE list(time, file, blocks, account, host, size)",
  };
}

std::vector<std::string> DropboxModule::Views() const {
  // Live (non-deleted) file count per account at each list time, mirroring
  // the Git branchcnt construction.
  return {
      "CREATE VIEW dbx_livecnt AS "
      "SELECT DISTINCT l.time,l.account,COUNT(c.file) AS cnt "
      "FROM list l "
      "JOIN commit_batch c ON c.time < l.time AND c.account = l.account "
      "WHERE c.size != -1 AND c.time = (SELECT MAX(time) "
      "FROM commit_batch WHERE file = c.file "
      "AND account = c.account AND time < l.time) GROUP BY l.time,l.account,l.file",
  };
}

std::vector<core::Invariant> DropboxModule::Invariants() const {
  return {
      // Blocklist soundness: the blocklist the server announces for a file
      // equals the most recently committed blocklist.
      {"dropbox-blocklist-soundness",
       "SELECT l.time, l.file FROM list l WHERE l.blocks != ("
       "SELECT c.blocks FROM commit_batch c WHERE c.file = l.file AND "
       "c.account = l.account AND c.time < l.time ORDER BY c.time DESC LIMIT 1)"},
      // File-list completeness: each list response names every live file.
      {"dropbox-list-completeness",
       "SELECT time, account FROM list "
       "NATURAL JOIN dbx_livecnt "
       "GROUP BY time, account, cnt HAVING COUNT(file) != cnt"},
  };
}

std::vector<std::string> DropboxModule::TrimmingQueries() const {
  return {
      "DELETE FROM list",
      "DELETE FROM commit_batch WHERE time NOT IN "
      "(SELECT MAX(time) FROM commit_batch GROUP BY account, file)",
  };
}

void DropboxModule::Log(std::string_view request, std::string_view response, int64_t time,
                        std::vector<core::LogTuple>* out) {
  auto req = http::ParseRequest(request);
  if (!req.ok()) {
    return;
  }
  if (req->method == "POST" && req->target == "/commit_batch") {
    auto body = json::Parse(req->body);
    if (!body.ok()) {
      return;
    }
    std::string account = body->Get("account").AsString();
    std::string host = body->Get("host").AsString();
    for (const json::JsonValue& commit : body->Get("commits").AsArray()) {
      out->push_back(core::LogTuple{
          "commit_batch",
          {db::Value(commit.Get("file").AsString()),
           db::Value(commit.Get("blocklist").AsString()), db::Value(account), db::Value(host),
           db::Value(commit.Get("size").AsInt())}});
    }
    return;
  }
  if (req->method == "GET" && req->target.rfind("/list", 0) == 0) {
    auto rsp = http::ParseResponse(response);
    if (!rsp.ok() || rsp->status != 200) {
      return;
    }
    auto body = json::Parse(rsp->body);
    if (!body.ok()) {
      return;
    }
    std::string account;
    size_t q = req->target.find("account=");
    if (q != std::string::npos) {
      size_t end = req->target.find('&', q);
      account =
          req->target.substr(q + 8, end == std::string::npos ? std::string::npos : end - q - 8);
    }
    std::string host = body->Get("host").AsString();
    for (const json::JsonValue& file : body->Get("files").AsArray()) {
      out->push_back(core::LogTuple{
          "list",
          {db::Value(file.Get("file").AsString()), db::Value(file.Get("blocklist").AsString()),
           db::Value(account), db::Value(host), db::Value(file.Get("size").AsInt())}});
    }
  }
}

}  // namespace seal::ssm

#include "src/ssm/git_ssm.h"

#include <sstream>

#include "src/http/http.h"

namespace seal::ssm {

namespace {

// "/myrepo/info/refs?service=git-upload-pack" -> "myrepo"
std::string RepoFromTarget(const std::string& target) {
  size_t start = target.find('/');
  if (start == std::string::npos) {
    return "";
  }
  size_t end = target.find('/', start + 1);
  if (end == std::string::npos) {
    end = target.find('?', start + 1);
  }
  if (end == std::string::npos) {
    end = target.size();
  }
  return target.substr(start + 1, end - start - 1);
}

}  // namespace

std::vector<std::string> GitModule::Schema() const {
  // Exactly the paper's schema (§3.1).
  return {
      "CREATE TABLE updates(time, repo, branch, cid, type)",
      "CREATE TABLE advertisements(time, repo, branch, cid)",
  };
}

std::vector<std::string> GitModule::Views() const {
  // The auxiliary view counting live (non-deleted) branches per repository
  // at each advertisement time (§6.2).
  return {
      "CREATE VIEW branchcnt AS "
      "SELECT DISTINCT a.time,a.repo,COUNT(u.branch) AS cnt "
      "FROM advertisements a "
      "JOIN updates u ON u.time < a.time AND u.repo = a.repo "
      "WHERE u.type != 'delete' AND u.time = (SELECT MAX(time) "
      "FROM updates WHERE branch = u.branch "
      "AND repo = u.repo AND time < a.time) GROUP BY a.time,a.repo,a.branch",
  };
}

std::vector<core::Invariant> GitModule::Invariants() const {
  return {
      // Soundness (§6.2): every advertised commit ID matches the most
      // recent update of that (repo, branch).
      {"git-soundness",
       "SELECT * FROM advertisements a WHERE cid != ("
       "SELECT u.cid FROM updates u WHERE u.repo = a.repo AND "
       "u.branch = a.branch AND u.time < a.time ORDER BY "
       "u.time DESC LIMIT 1)"},
      // Completeness (§1, §6.2): every advertisement lists ALL live
      // branches.
      {"git-completeness",
       "SELECT time, repo FROM advertisements "
       "NATURAL JOIN branchcnt "
       "GROUP BY time, repo, cnt HAVING COUNT(branch) != cnt"},
  };
}

std::vector<std::string> GitModule::TrimmingQueries() const {
  // Verbatim from §5.1.
  return {
      "DELETE FROM advertisements",
      "DELETE FROM updates WHERE time NOT IN "
      "(SELECT MAX(time) FROM updates GROUP BY repo, branch)",
  };
}

void GitModule::Log(std::string_view request, std::string_view response, int64_t time,
                    std::vector<core::LogTuple>* out) {
  auto req = http::ParseRequest(request);
  if (!req.ok()) {
    return;
  }
  std::string repo = RepoFromTarget(req->target);
  if (repo.empty()) {
    return;
  }
  if (req->method == "POST" && req->target.find("git-receive-pack") != std::string::npos) {
    // Push: record branch/tag pointer changes.
    std::istringstream body(req->body);
    std::string op, branch, cid;
    while (body >> op) {
      if (op == "UPDATE" && body >> branch >> cid) {
        out->push_back(core::LogTuple{
            "updates",
            {db::Value(repo), db::Value(branch), db::Value(cid), db::Value(std::string("update"))}});
      } else if (op == "DELETE" && body >> branch) {
        out->push_back(core::LogTuple{
            "updates",
            {db::Value(repo), db::Value(branch), db::Value(std::string("")),
             db::Value(std::string("delete"))}});
      } else {
        break;  // malformed body: stop parsing, log nothing further
      }
    }
    return;
  }
  if (req->method == "GET" && req->target.find("info/refs") != std::string::npos) {
    // Fetch: record the ref advertisement the server returned.
    auto rsp = http::ParseResponse(response);
    if (!rsp.ok() || rsp->status != 200) {
      return;
    }
    std::istringstream body(rsp->body);
    std::string tag, branch, cid;
    while (body >> tag) {
      if (tag != "REF" || !(body >> branch >> cid)) {
        break;
      }
      out->push_back(core::LogTuple{
          "advertisements", {db::Value(repo), db::Value(branch), db::Value(cid)}});
    }
  }
}

}  // namespace seal::ssm

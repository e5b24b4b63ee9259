#include "src/ssm/messaging_ssm.h"

#include "src/http/http.h"
#include "src/json/json.h"

namespace seal::ssm {

std::vector<std::string> MessagingModule::Schema() const {
  return {
      "CREATE TABLE msg_sent(time, mid, sender, recipient, body)",
      "CREATE TABLE msg_delivered(time, mid, recipient, body)",
      // One row per inbox poll: how many messages the service handed out.
      "CREATE TABLE msg_polls(time, recipient, delivered)",
  };
}

std::vector<core::Invariant> MessagingModule::Invariants() const {
  return {
      // Soundness: everything delivered was previously sent to that
      // recipient with exactly that body (catches modification and
      // misdelivery).
      {"messaging-soundness",
       "SELECT d.time, d.mid FROM msg_delivered d WHERE NOT EXISTS ("
       "SELECT * FROM msg_sent s WHERE s.mid = d.mid AND "
       "s.recipient = d.recipient AND s.body = d.body AND s.time < d.time)"},
      // Completeness: a poll returns exactly the messages pending for the
      // recipient (sent before the poll, not delivered before the poll).
      {"messaging-completeness",
       "SELECT p.time, p.recipient FROM msg_polls p WHERE p.delivered != "
       "(SELECT COUNT(*) FROM msg_sent s WHERE s.recipient = p.recipient "
       "AND s.time < p.time) - "
       "(SELECT COUNT(*) FROM msg_delivered d WHERE d.recipient = p.recipient "
       "AND d.time < p.time)"},
      // Exactly-once: no (message, recipient) is delivered twice.
      {"messaging-no-duplicates",
       "SELECT mid, recipient FROM msg_delivered "
       "GROUP BY mid, recipient HAVING COUNT(*) > 1"},
  };
}

std::vector<std::string> MessagingModule::TrimmingQueries() const {
  return {
      // Polls are checked once; delivered messages close out their sends.
      "DELETE FROM msg_polls",
      "DELETE FROM msg_sent WHERE mid IN (SELECT mid FROM msg_delivered)",
      "DELETE FROM msg_delivered",
  };
}

void MessagingModule::Log(std::string_view request, std::string_view response, int64_t time,
                          std::vector<core::LogTuple>* out) {
  auto req = http::ParseRequest(request);
  if (!req.ok()) {
    return;
  }
  if (req->method == "POST" && req->target == "/msg/send") {
    auto body = json::Parse(req->body);
    if (!body.ok()) {
      return;
    }
    out->push_back(core::LogTuple{
        "msg_sent",
        {db::Value(body->Get("id").AsString()), db::Value(body->Get("from").AsString()),
         db::Value(body->Get("to").AsString()), db::Value(body->Get("body").AsString())}});
    return;
  }
  if (req->method == "GET" && req->target.rfind("/msg/inbox", 0) == 0) {
    auto rsp = http::ParseResponse(response);
    if (!rsp.ok() || rsp->status != 200) {
      return;
    }
    auto body = json::Parse(rsp->body);
    if (!body.ok()) {
      return;
    }
    std::string user;
    size_t q = req->target.find("user=");
    if (q != std::string::npos) {
      size_t end = req->target.find('&', q);
      user =
          req->target.substr(q + 5, end == std::string::npos ? std::string::npos : end - q - 5);
    }
    const json::JsonArray& messages = body->Get("messages").AsArray();
    for (const json::JsonValue& message : messages) {
      out->push_back(core::LogTuple{
          "msg_delivered",
          {db::Value(message.Get("id").AsString()), db::Value(user),
           db::Value(message.Get("body").AsString())}});
    }
    out->push_back(core::LogTuple{
        "msg_polls",
        {db::Value(user), db::Value(static_cast<int64_t>(messages.size()))}});
  }
}

}  // namespace seal::ssm

// Service-specific module (SSM) interface (paper §5.1).
//
// An SSM supplies the relational schema of the audit log, parses each
// request/response pair to extract the tuples worth logging, and provides
// the invariant and trimming queries. The paper sizes these at 250-400
// lines each; ours live in src/ssm/.
#ifndef SRC_CORE_SERVICE_MODULE_H_
#define SRC_CORE_SERVICE_MODULE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/db/value.h"

namespace seal::core {

// One tuple destined for the audit log. The logical timestamp column is
// appended by the logger, not the SSM.
struct LogTuple {
  std::string table;
  std::vector<db::Value> values;  // all columns except the leading `time`
};

// A named integrity invariant: `query` returns the VIOLATING entries (the
// negation of the invariant), so an empty result means the invariant holds.
struct Invariant {
  std::string name;
  std::string query;
};

class ServiceModule {
 public:
  virtual ~ServiceModule() = default;

  virtual std::string name() const = 0;

  // DDL executed at enclave initialisation, in order: tables then views.
  // Every table's first column must be `time` (the logical timestamp).
  virtual std::vector<std::string> Schema() const = 0;
  virtual std::vector<std::string> Views() const { return {}; }

  // Integrity invariants (soundness/completeness, §5.2).
  virtual std::vector<Invariant> Invariants() const = 0;

  // Trimming queries (§5.1) removing entries no longer needed.
  virtual std::vector<std::string> TrimmingQueries() const = 0;

  // Parses one request/response pair and appends zero or more tuples to
  // `out`. `time` is the logical timestamp the logger will use, available
  // to SSMs that need to correlate within the pair.
  virtual void Log(std::string_view request, std::string_view response, int64_t time,
                   std::vector<LogTuple>* out) = 0;
};

}  // namespace seal::core

#endif  // SRC_CORE_SERVICE_MODULE_H_

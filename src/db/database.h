// seadb: an embedded in-memory relational database with a SQL front end.
//
// This plays the role SQLite plays in the LibSEAL paper: it executes the
// audit-log schema DDL, the logger's INSERTs, the invariant SELECT queries
// and the trimming DELETEs, entirely inside the (simulated) enclave.
#ifndef SRC_DB_DATABASE_H_
#define SRC_DB_DATABASE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/db/ast.h"
#include "src/db/row_store.h"
#include "src/db/value.h"

namespace seal::db {

// Result of Execute(): column names and rows for SELECT; `affected` for DML.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  size_t affected = 0;

  bool empty() const { return rows.empty(); }
};

// Executor knobs, settable per database. All default on; benchmarks flip
// them off to compare against the unindexed nested-loop engine.
struct Tuning {
  bool use_time_index = true;  // index scans + ORDER BY/MAX fast paths
  bool use_hash_join = true;   // hash joins for equi-join keys
};

// A logical snapshot of one table: a pinned prefix of its row store plus
// the facts the executor needs to narrow scans without touching live
// (concurrently mutated) index state.
struct TableSnapshot {
  RowStore::View view;
  int time_col = -1;
  // Rows ascending by integer time (the sequencer drains in ticket order,
  // so this is the steady state). Enables binary-search TimeBound
  // narrowing directly on the view.
  bool time_sorted = false;
};

// A cheap whole-database snapshot: per-table pinned row prefixes. Capture
// must be externally synchronised with writers (the sequencer captures
// under the drain mutex, at a pair boundary); executing against the
// snapshot is then safe from any thread, concurrently with appends and even
// trims — the views keep pre-trim rows alive until the last reader drops
// them.
struct Snapshot {
  std::map<std::string, TableSnapshot> tables;
};

class Database {
 public:
  Database() = default;
  // Movable, not copyable (views hold parsed ASTs).
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  // Parses and executes one SQL statement.
  Result<QueryResult> Execute(std::string_view sql);

  // --- snapshots (invariant checking) ---

  // Captures a logical snapshot of every table. Caller must hold whatever
  // lock serialises writers (see Snapshot docs).
  Snapshot CaptureSnapshot() const;

  // Parses and executes one SELECT against a snapshot: the scans read only
  // the snapshot's pinned row prefixes, so this is safe concurrently with
  // writers. Rejects any other statement.
  Result<QueryResult> ExecuteSnapshot(std::string_view sql, const Snapshot& snapshot) const;

  // Programmatic fast paths used by the audit logger (no SQL parsing).
  Status CreateTable(const std::string& name, std::vector<std::string> columns);
  Status InsertRow(const std::string& name, Row row);

  bool HasTable(const std::string& name) const { return tables_.count(name) > 0; }
  // Number of rows in `name`, or 0 if absent.
  size_t TableSize(const std::string& name) const;
  // Direct read access for the audit log's hash-chain maintenance.
  const RowStore* TableRows(const std::string& name) const;
  const std::vector<std::string>* TableColumns(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // Output column names of a table or view without executing it, or nullopt
  // when they cannot be derived statically (unknown name, or a view whose
  // select list contains a star). Used for join-key/bound planning.
  std::optional<std::vector<std::string>> CatalogColumns(const std::string& name) const;

  void set_tuning(Tuning tuning) { tuning_ = tuning; }
  const Tuning& tuning() const { return tuning_; }

  // The ordered (time, row position) index of `name`, sorted ascending, or
  // nullptr when the table has no valid time index. Exposed for tests.
  const std::vector<std::pair<int64_t, size_t>>* TimeIndexForTesting(
      const std::string& name) const;

  // Whole-database serialisation (used for enclave sealing). Views are
  // persisted as their original CREATE VIEW SQL and re-executed on load.
  Bytes Serialize() const;
  static Result<Database> Deserialize(BytesView in);

 private:
  friend class Executor;

  struct TableData {
    std::vector<std::string> columns;
    RowStore rows;
    // Primary-key index on the `time` column: (time, row position), sorted.
    // Valid only while every row's time value is a non-null integer;
    // maintained on INSERT, remapped incrementally after DELETE compaction
    // and rebuilt after UPDATE touches the time column.
    int time_col = -1;
    bool index_valid = false;
    std::vector<std::pair<int64_t, size_t>> time_index;
    // Row positions ascending by integer time: snapshots binary-search the
    // pinned prefix directly instead of touching the live index.
    bool rows_time_ordered = false;
    int64_t last_row_time = 0;  // meaningful only while rows_time_ordered
  };

  struct ViewData {
    std::shared_ptr<SelectStmt> select;
    std::string sql;  // original CREATE VIEW statement, for serialisation
  };

  static void InitTimeIndex(TableData& table);
  static void IndexInsertedRow(TableData& table, size_t row_idx);
  static void RebuildTimeIndex(TableData& table);
  // Incremental index maintenance after a DELETE compaction: surviving
  // index entries are remapped to their post-compaction positions in one
  // O(n) pass (no re-sort — the remap is monotone). Falls back to a full
  // rebuild when the index was already invalid. `doomed` is the pre-delete
  // per-row deletion mask.
  static void RemapTimeIndexAfterDelete(TableData& table, const std::vector<bool>& doomed);

  std::map<std::string, TableData> tables_;
  std::map<std::string, ViewData> views_;
  Tuning tuning_;
};

}  // namespace seal::db

#endif  // SRC_DB_DATABASE_H_

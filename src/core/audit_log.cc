#include "src/core/audit_log.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "src/common/clock.h"
#include "src/obs/obs.h"

namespace seal::core {

namespace {

// Decrypts one framed record. `cipher` is the per-file cached context, or
// null for a sign-only log.
Result<Bytes> MaybeDecrypt(const crypto::Aes128Gcm* cipher, BytesView wire) {
  if (cipher == nullptr) {
    return Bytes(wire.begin(), wire.end());
  }
  if (wire.size() < crypto::kGcmNonceSize + crypto::kGcmTagSize) {
    return DataLoss("encrypted log record too short");
  }
  Bytes plain(wire.size() - crypto::kGcmNonceSize - crypto::kGcmTagSize);
  if (!cipher->OpenInto(wire.subspan(0, crypto::kGcmNonceSize), {},
                        wire.subspan(crypto::kGcmNonceSize), plain.data())) {
    return PermissionDenied("log record decryption failed");
  }
  return plain;
}

// Stable identity of a row for matching post-trim survivors back to their
// original entries: every column's serialised form, length-prefixed so
// adjacent values cannot alias.
std::string RowIdentity(const db::Row& row) {
  std::string key;
  for (const db::Value& v : row) {
    const std::string s = v.Serialize();
    key += std::to_string(s.size());
    key += ':';
    key += s;
  }
  return key;
}

// What a torn write at the physical end of the last segment file means.
enum class TornTail {
  kReject,  // verification: every byte of the log must parse
  kRepair,  // recovery: a crashed write, reported for truncation
};

// What WalkSegments read.
struct SegmentWalk {
  std::vector<LogEntry> entries;            // records past the start point
  std::vector<crypto::Sha256Digest> heads;  // chain head after each of them
  Bytes chain;                              // chain head after the last record
  uint64_t record_bytes = 0;                // frame bytes read
  uint64_t rewrite_epoch = 0;
  uint32_t segments = 0;  // segment files on disk
  // The last segment file: its header (nullopt when the header itself is
  // torn), its length up to the end of its last whole record, and whether
  // a torn frame follows.
  std::optional<SegmentHeader> last_header;
  uint64_t last_bytes = 0;
  bool torn = false;
};

// Decrypts and strictly parses one record, extending the walk's chain over
// its plaintext.
Status ReadRecord(const crypto::Aes128Gcm* cipher, BytesView wire, SegmentWalk& walk) {
  auto plain = MaybeDecrypt(cipher, wire);
  if (!plain.ok()) {
    return plain.status();
  }
  size_t entry_off = 0;
  auto entry = LogEntry::Deserialize(*plain, entry_off);
  if (!entry.ok()) {
    return entry.status();
  }
  if (entry_off != plain->size()) {
    return DataLoss("trailing bytes in log record");
  }
  crypto::Sha256 h;
  h.Update(walk.chain);
  h.Update(*plain);
  const crypto::Sha256Digest d = h.Finish();
  walk.chain.assign(d.begin(), d.end());
  walk.heads.push_back(d);
  walk.entries.push_back(std::move(*entry));
  return Status::Ok();
}

// The one reader of the persisted log, behind VerifyLogFile,
// ReadVerifiedEntries and Recover. Walks the segment files from segment 0,
// or from a snapshot's resume point, and checks that their indices are
// contiguous, every header decodes, rewrite epochs agree, each prev-head
// continues the chain, non-final segments are closed and a closed segment's
// ticket range matches its records. Every record is decrypted and strictly
// parsed, and the hash chain is recomputed over the record bytes. Whether
// the committed head lands on the chain is the caller's check.
Result<SegmentWalk> WalkSegments(const std::string& path, const crypto::Aes128Gcm* cipher,
                                 const SnapshotState* start, TornTail torn_tail) {
  SegmentWalk walk;
  walk.chain.assign(crypto::kSha256DigestSize, 0);
  uint32_t first = 0;
  uint64_t resume_offset = 0;
  bool epoch_set = false;
  if (start != nullptr) {
    walk.chain = start->chain_head;
    walk.rewrite_epoch = start->rewrite_epoch;
    epoch_set = true;
    first = start->resume_segment;
    resume_offset = start->resume_offset;
  }
  const std::vector<uint32_t> segments = ListSegmentFiles(path);
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i] != i) {
      return DataLoss("missing log segment " + std::to_string(i));
    }
  }
  if (segments.empty() && torn_tail == TornTail::kReject && !FileExists(HeadFilePath(path))) {
    // A log that committed a head before flushing any record has no
    // segment yet; with no head either, there is no log.
    return NotFound("no audit log at " + path);
  }
  walk.segments = static_cast<uint32_t>(segments.size());
  // A walk always reads the last segment, so the caller can resume it.
  if ((first > 0 || resume_offset > 0) && first >= walk.segments) {
    return DataLoss("snapshot resumes past the last segment");
  }
  for (uint32_t seg = first; seg < walk.segments; ++seg) {
    const std::string seg_path = SegmentFilePath(path, seg);
    const bool repair = seg + 1 == walk.segments && torn_tail == TornTail::kRepair;
    auto data = ReadFileBytes(seg_path);
    if (!data.ok()) {
      return data.status();
    }
    const bool resumed = seg == first && resume_offset > kSegmentHeaderSize;
    if (resumed && resume_offset > data->size()) {
      return DataLoss("snapshot resume offset beyond segment " + seg_path);
    }
    if (repair && data->size() < kSegmentHeaderSize) {
      // Crash between creating the file and syncing its header: the
      // segment holds no durable records.
      walk.last_header.reset();
      walk.last_bytes = 0;
      walk.torn = true;
      return walk;
    }
    auto header = SegmentHeader::Decode(*data);
    if (!header.ok()) {
      return header.status();
    }
    if (header->index != seg) {
      return DataLoss("segment index mismatch in " + seg_path);
    }
    if (!epoch_set) {
      walk.rewrite_epoch = header->rewrite_epoch;
      epoch_set = true;
    } else if (header->rewrite_epoch != walk.rewrite_epoch) {
      return DataLoss("segment rewrite epoch mismatch in " + seg_path);
    }
    if (seg + 1 < walk.segments && header->closed == 0) {
      return PermissionDenied("non-final log segment not closed: " + seg_path);
    }
    // Records before a snapshot's resume point are not read, so that
    // segment's prev-head and ticket range go unchecked here; the
    // committed-head check still covers them.
    size_t off = resumed ? static_cast<size_t>(resume_offset) : kSegmentHeaderSize;
    if (!resumed && !ConstantTimeEqual(header->prev_head, walk.chain)) {
      return PermissionDenied("segment chain discontinuity at " + seg_path);
    }
    const size_t before = walk.entries.size();
    while (off < data->size()) {
      const size_t left = data->size() - off;
      const uint32_t len = left < 4 ? 0 : LoadBe32(data->data() + off);
      Status bad = left < 4         ? DataLoss("truncated record frame in " + seg_path)
                   : len > left - 4 ? DataLoss("truncated record body in " + seg_path)
                                    : ReadRecord(cipher, BytesView(*data).subspan(off + 4, len),
                                                 walk);
      if (!bad.ok()) {
        // Only a frame running to the physical end of the last file can be
        // a torn write; anywhere else bad bytes are corruption.
        if (repair && (left < 4 || len >= left - 4)) {
          walk.torn = true;
          break;
        }
        return bad;
      }
      off += 4 + len;
      walk.record_bytes += 4 + len;
    }
    if (header->closed != 0 && !resumed && walk.entries.size() > before &&
        (walk.entries[before].time != header->first_ticket ||
         walk.entries.back().time != header->last_ticket)) {
      return PermissionDenied("segment ticket range mismatch in " + seg_path);
    }
    walk.last_header = *header;
    walk.last_bytes = off;
  }
  return walk;
}

}  // namespace

AuditLog::AuditLog(AuditLogOptions options, crypto::EcdsaPrivateKey signing_key)
    : options_(std::move(options)),
      signing_key_(std::move(signing_key)),
      counter_(std::make_unique<rote::RoteCounter>(options_.counter_options)),
      chain_head_(crypto::kSha256DigestSize, 0),
      active_prev_head_(crypto::kSha256DigestSize, 0),
      last_flushed_head_(crypto::kSha256DigestSize, 0) {
  if (!options_.encryption_key.empty()) {
    cipher_ = std::make_unique<crypto::Aes128Gcm>(options_.encryption_key);
    nonce_seq_ = std::make_unique<crypto::GcmNonceSequence>();
  }
  if (options_.mode == PersistenceMode::kDisk && !options_.path.empty() && !options_.recover) {
    // Not recovering: any lifecycle files at this path are stale state from
    // a previous run.
    RemoveLogFiles(options_.path);
  }
}

AuditLog::~AuditLog() { (void)FlushPersisted(); }

Status AuditLog::ExecuteSchema(const std::vector<std::string>& statements) {
  for (const std::string& sql : statements) {
    auto r = db_.Execute(sql);
    if (!r.ok()) {
      return r.status();
    }
  }
  return Status::Ok();
}

Bytes AuditLog::ExtendChain(const Bytes& head, const LogEntry& entry) const {
  crypto::Sha256 h;
  h.Update(head);
  h.Update(entry.Serialize());
  crypto::Sha256Digest d = h.Finish();
  return Bytes(d.begin(), d.end());
}

Status AuditLog::Append(const std::string& table, db::Row values, int64_t wall_nanos) {
  if (values.empty() || !values[0].is_int()) {
    return InvalidArgument("first column of every audit tuple must be the integer time");
  }
  if (options_.mode == PersistenceMode::kDisk && options_.recover && !recovered_) {
    return FailedPrecondition("Recover() must run before the first append");
  }
  LogEntry entry;
  entry.time = values[0].AsInt();
  entry.wall_nanos = wall_nanos != 0 ? wall_nanos : NowNanos();
  entry.table = table;
  entry.values = values;
  SEAL_RETURN_IF_ERROR(db_.InsertRow(table, std::move(values)));
  chain_head_ = ExtendChain(chain_head_, entry);
  ++entries_logged_;
  max_ticket_ = std::max(max_ticket_, entry.time);
  if (options_.mode == PersistenceMode::kDisk) {
    StageEntry(entry);
  }
  entries_.push_back(std::move(entry));
  return Status::Ok();
}

Bytes AuditLog::EncodeRecord(BytesView plain) {
  if (cipher_ == nullptr) {
    return Bytes(plain.begin(), plain.end());
  }
  Bytes out(crypto::kGcmNonceSize + plain.size() + crypto::kGcmTagSize);
  nonce_seq_->Next(out.data());
  cipher_->SealInto(BytesView(out.data(), crypto::kGcmNonceSize), {}, plain,
                    out.data() + crypto::kGcmNonceSize);
  return out;
}

void AuditLog::StageEntry(const LogEntry& entry) {
  // Stage only: the write (one syscall for a whole batch) happens at
  // FlushPersisted/CommitHead, so a burst of appends costs one flush.
  const Bytes record = EncodeRecord(entry.Serialize());
  AppendBe32(pending_persist_, static_cast<uint32_t>(record.size()));
  seal::Append(pending_persist_, record);
  const size_t frame_size = 4 + record.size();
  persisted_bytes_ += frame_size;
  // Callers extend chain_head_ before staging, so it is the head after
  // this entry — the value the segment roller records per frame.
  pending_frames_.push_back({entry.time, frame_size, chain_head_});
}

SealContext AuditLog::MakeSealContext() const {
  SealContext ctx;
  ctx.encryption_key = &options_.encryption_key;
  ctx.enclave = options_.sealing_enclave;
  ctx.policy = options_.seal_policy;
  return ctx;
}

Status AuditLog::OpenSegment(const Bytes& prev_head, int64_t first_ticket) {
  SegmentHeader header;
  header.index = active_segment_;
  header.rewrite_epoch = rewrite_epoch_;
  header.prev_head = prev_head;
  header.first_ticket = first_ticket;
  header.counter_value = last_counter_value_;
  SEAL_RETURN_IF_ERROR(DurableWriteFile(SegmentFilePath(options_.path, active_segment_),
                                        header.Encode(), /*append=*/false, options_.fsync));
  active_segment_open_ = true;
  active_segment_file_bytes_ = kSegmentHeaderSize;
  active_prev_head_ = prev_head;
  active_first_ticket_ = first_ticket;
  active_last_ticket_ = first_ticket;
  segment_count_ = std::max(segment_count_, active_segment_ + 1);
  SEAL_OBS_COUNTER("log_segments_total").Increment();
  return Status::Ok();
}

Status AuditLog::CloseActiveSegment() {
  SegmentHeader header;
  header.index = active_segment_;
  header.closed = 1;
  header.rewrite_epoch = rewrite_epoch_;
  header.prev_head = active_prev_head_;
  header.first_ticket = active_first_ticket_;
  header.last_ticket = active_last_ticket_;
  header.counter_value = last_counter_value_;
  SEAL_RETURN_IF_ERROR(UpdateSegmentHeader(SegmentFilePath(options_.path, active_segment_),
                                           header, options_.fsync));
  active_segment_open_ = false;
  SEAL_OBS_COUNTER("log_segment_rolls_total").Increment();
  return Status::Ok();
}

Status AuditLog::FlushPersisted() {
  if (options_.mode != PersistenceMode::kDisk || pending_persist_.empty()) {
    return Status::Ok();
  }
  const Bytes batch = std::move(pending_persist_);
  pending_persist_.clear();
  const std::vector<StagedFrame> frames = std::move(pending_frames_);
  pending_frames_.clear();
  bytes_since_snapshot_ += batch.size();
  // Frames are written in contiguous runs: one file append per segment
  // touched, rolling to a new segment when the active one would exceed the
  // byte budget (a segment always takes at least one record, so an
  // oversized frame gets a segment of its own).
  size_t off = 0;        // batch offset of the current frame
  size_t run_start = 0;  // batch offset of the first unwritten byte
  auto write_run = [&](size_t end) -> Status {
    if (end == run_start) {
      return Status::Ok();
    }
    SEAL_RETURN_IF_ERROR(DurableWriteFile(SegmentFilePath(options_.path, active_segment_),
                                          BytesView(batch).subspan(run_start, end - run_start),
                                          /*append=*/true, options_.fsync));
    active_segment_file_bytes_ += end - run_start;
    run_start = end;
    return Status::Ok();
  };
  for (const StagedFrame& frame : frames) {
    if (!active_segment_open_) {
      SEAL_RETURN_IF_ERROR(OpenSegment(last_flushed_head_, frame.ticket));
    } else {
      const uint64_t projected = active_segment_file_bytes_ + (off - run_start);
      if (projected > kSegmentHeaderSize && projected + frame.size > options_.segment_bytes) {
        SEAL_RETURN_IF_ERROR(write_run(off));
        SEAL_RETURN_IF_ERROR(CloseActiveSegment());
        ++active_segment_;
        SEAL_RETURN_IF_ERROR(OpenSegment(last_flushed_head_, frame.ticket));
      }
    }
    off += frame.size;
    active_last_ticket_ = frame.ticket;
    last_flushed_head_ = frame.head_after;
  }
  return write_run(off);
}

Status AuditLog::CommitHead() {
  SEAL_RETURN_IF_ERROR(FlushPersisted());
  if (options_.mode != PersistenceMode::kDisk) {
    // Nothing persisted means nothing to roll back: the counter round is
    // only needed when the log leaves the enclave.
    return Status::Ok();
  }
  // One monotonic-counter round per commit binds this head to "now".
  auto counter_value = counter_->Increment();
  if (!counter_value.ok()) {
    return counter_value.status();
  }
  last_counter_value_ = *counter_value;
  Bytes head;
  seal::Append(head, chain_head_);
  AppendBe64(head, *counter_value);
  AppendBe64(head, entries_logged_);
  crypto::EcdsaSignature sig = signing_key_.Sign(head);
  seal::Append(head, sig.Encode());
  // Atomic replace: a crash mid-commit leaves the previous complete head,
  // never a torn one (the old code rewrote the file in place).
  SEAL_RETURN_IF_ERROR(AtomicWriteFile(HeadFilePath(options_.path), head, options_.fsync));
  return MaybeSnapshot();
}

Status AuditLog::MaybeSnapshot() {
  if (options_.snapshot_interval_bytes == 0 ||
      bytes_since_snapshot_ < options_.snapshot_interval_bytes) {
    return Status::Ok();
  }
  return WriteSnapshot();
}

Status AuditLog::WriteSnapshot() {
  if (options_.mode != PersistenceMode::kDisk || options_.path.empty()) {
    return Status::Ok();
  }
  SEAL_RETURN_IF_ERROR(FlushPersisted());
  SnapshotState snapshot;
  snapshot.rewrite_epoch = rewrite_epoch_;
  snapshot.chain_head = chain_head_;
  snapshot.persisted_bytes = persisted_bytes_;
  snapshot.resume_segment = active_segment_;
  // Offset 0 = the segment does not exist yet; replay starts at its header
  // if it appears.
  snapshot.resume_offset = active_segment_open_ ? active_segment_file_bytes_ : 0;
  snapshot.counter_value = last_counter_value_;
  snapshot.max_ticket = max_ticket_;
  snapshot.entries = entries_;
  const int64_t t0 = NowNanos();
  SEAL_RETURN_IF_ERROR(WriteSnapshotFile(SnapshotFilePath(options_.path), snapshot,
                                         MakeSealContext(), options_.fsync));
  SEAL_OBS_HISTOGRAM("snapshot_seal_nanos").Observe(static_cast<uint64_t>(NowNanos() - t0));
  SEAL_OBS_COUNTER("log_snapshots_total").Increment();
  bytes_since_snapshot_ = 0;
  return Status::Ok();
}

Result<db::QueryResult> AuditLog::Query(const std::string& sql) { return db_.Execute(sql); }

Status AuditLog::Trim(const std::vector<std::string>& trimming_queries,
                      size_t* deleted_out, size_t* archived_out) {
  if (deleted_out != nullptr) {
    *deleted_out = 0;
  }
  if (archived_out != nullptr) {
    *archived_out = 0;
  }
  if (trimming_queries.empty()) {
    return Status::Ok();
  }
  size_t deleted = 0;
  for (const std::string& sql : trimming_queries) {
    auto r = db_.Execute(sql);
    if (!r.ok()) {
      return r.status();
    }
    deleted += r->affected;
  }
  if (deleted_out != nullptr) {
    *deleted_out = deleted;
  }
  if (deleted == 0) {
    // Nothing left the log: the chain, the persisted file and the counter
    // binding are all still valid, so the O(n) rebuild would be pure waste.
    return Status::Ok();
  }
  // Rebuild the entries and the hash chain from the surviving rows (§5.1:
  // "LibSEAL recomputes the hashes of the remaining log entries"). Each
  // surviving row is matched back to its original entry by full row
  // identity, FIFO among duplicates, so every survivor keeps its own wall
  // clock — keying by (table, time) collapsed same-time rows onto one.
  std::map<std::pair<std::string, std::string>, std::deque<size_t>> originals;
  for (size_t i = 0; i < entries_.size(); ++i) {
    originals[{entries_[i].table, RowIdentity(entries_[i].values)}].push_back(i);
  }
  std::vector<char> kept(entries_.size(), 0);
  struct Survivor {
    size_t original;
    LogEntry entry;
  };
  std::vector<Survivor> survivors;
  for (const std::string& table : db_.TableNames()) {
    const db::RowStore* rows = db_.TableRows(table);
    for (size_t r = 0; r < rows->size(); ++r) {
      const db::Row& row = (*rows)[r];
      LogEntry entry;
      entry.time = row.empty() ? 0 : row[0].AsInt();
      entry.table = table;
      entry.values = row;
      size_t original = entries_.size();
      auto it = originals.find({table, RowIdentity(row)});
      if (it != originals.end() && !it->second.empty()) {
        original = it->second.front();
        it->second.pop_front();
        kept[original] = 1;
        entry.wall_nanos = entries_[original].wall_nanos;
      }
      survivors.push_back({original, std::move(entry)});
    }
  }
  // Original append order; rows a trimming query inserted (no original)
  // sort last by time.
  std::stable_sort(survivors.begin(), survivors.end(),
                   [](const Survivor& a, const Survivor& b) {
                     if (a.original != b.original) {
                       return a.original < b.original;
                     }
                     return a.entry.time < b.entry.time;
                   });
  std::vector<LogEntry> removed;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (!kept[i]) {
      removed.push_back(std::move(entries_[i]));
    }
  }
  if (options_.archive_trimmed && options_.mode == PersistenceMode::kDisk &&
      !options_.path.empty() && !removed.empty()) {
    SEAL_RETURN_IF_ERROR(WriteArchiveFile(ArchiveFilePath(options_.path, next_archive_index_),
                                          next_archive_index_, removed, MakeSealContext(),
                                          options_.fsync));
    ++next_archive_index_;
    SEAL_OBS_COUNTER("log_archives_total").Increment();
    SEAL_OBS_COUNTER("log_archived_entries_total").Add(removed.size());
    if (archived_out != nullptr) {
      *archived_out = removed.size();
    }
  }
  entries_.clear();
  entries_.reserve(survivors.size());
  for (Survivor& s : survivors) {
    entries_.push_back(std::move(s.entry));
  }
  const bool disk = options_.mode == PersistenceMode::kDisk;
  if (disk) {
    DiscardSegments();
  }
  // One pass rebuilds the chain and stages the rewrite; each staged frame
  // carries the head just computed for it.
  chain_head_.assign(crypto::kSha256DigestSize, 0);
  for (const LogEntry& entry : entries_) {
    chain_head_ = ExtendChain(chain_head_, entry);
    if (disk) {
      StageEntry(entry);
    }
  }
  entries_logged_ = entries_.size();
  if (disk) {
    SEAL_RETURN_IF_ERROR(CommitHead());
    if (options_.snapshot_interval_bytes > 0 && bytes_since_snapshot_ > 0) {
      // Fresh snapshot so no resume pointer into the pre-trim segments
      // survives the rewrite.
      SEAL_RETURN_IF_ERROR(WriteSnapshot());
    }
  }
  return Status::Ok();
}

void AuditLog::DiscardSegments() {
  // The trim rewrite replaces the whole persisted log: anything staged but
  // unflushed is superseded, and the old snapshot's resume pointers
  // reference deleted segments.
  pending_persist_.clear();
  pending_frames_.clear();
  for (uint32_t index : ListSegmentFiles(options_.path)) {
    RemoveFileIfExists(SegmentFilePath(options_.path, index));
  }
  RemoveFileIfExists(SnapshotFilePath(options_.path));
  ++rewrite_epoch_;
  active_segment_ = 0;
  active_segment_open_ = false;
  active_segment_file_bytes_ = 0;
  segment_count_ = 0;
  last_flushed_head_.assign(crypto::kSha256DigestSize, 0);
  persisted_bytes_ = 0;
}

Status AuditLog::Recover(RecoveryInfo* info) {
  RecoveryInfo scratch;
  RecoveryInfo& out = info != nullptr ? *info : scratch;
  out = RecoveryInfo{};
  if (options_.mode != PersistenceMode::kDisk || options_.path.empty()) {
    recovered_ = true;
    return Status::Ok();
  }
  if (recovered_) {
    return FailedPrecondition("Recover() already ran");
  }
  if (entries_logged_ != 0) {
    return FailedPrecondition("Recover() must precede the first append");
  }
  const int64_t t0 = NowNanos();

  // 1. The committed head. It may be missing or torn — the chain then
  //    self-verifies through the segment headers and whatever follows the
  //    last durable commit is kept (it was authenticated by us).
  Bytes stored_head;
  uint64_t stored_count = 0;
  bool head_valid = false;
  const bool head_exists = FileExists(HeadFilePath(options_.path));
  if (head_exists) {
    auto data = ReadFileBytes(HeadFilePath(options_.path));
    if (data.ok() && data->size() == crypto::kSha256DigestSize + 16 + 64) {
      auto sig = crypto::EcdsaSignature::Decode(
          BytesView(*data).subspan(crypto::kSha256DigestSize + 16, 64));
      Bytes signed_blob(data->begin(),
                        data->begin() + static_cast<ptrdiff_t>(crypto::kSha256DigestSize + 16));
      if (sig.has_value() && signing_key_.public_key().Verify(signed_blob, *sig)) {
        stored_head.assign(data->begin(),
                           data->begin() + static_cast<ptrdiff_t>(crypto::kSha256DigestSize));
        stored_count = LoadBe64(data->data() + crypto::kSha256DigestSize + 8);
        head_valid = true;
      }
    }
  }
  out.head_missing = !head_valid;

  // 2. The newest snapshot, if present and its seal opens under our
  //    identity. Any failure just falls back to a full replay.
  std::optional<SnapshotState> snapshot;
  if (FileExists(SnapshotFilePath(options_.path))) {
    auto snap = ReadSnapshotFile(SnapshotFilePath(options_.path), MakeSealContext());
    if (snap.ok()) {
      snapshot = std::move(*snap);
    }
  }

  out.had_state =
      head_exists || snapshot.has_value() || !ListSegmentFiles(options_.path).empty();

  // 3. Replay, snapshot plan first. The committed head must appear in the
  //    recovered chain exactly at its entry count; a stale or forged
  //    snapshot fails this and triggers the full replay.
  const Bytes empty_head(crypto::kSha256DigestSize, 0);
  auto attempt = [&](const SnapshotState* snap) -> Result<SegmentWalk> {
    const size_t base = snap != nullptr ? snap->entries.size() : 0;
    if (snap != nullptr) {
      // The snapshot's content must reproduce its claimed chain head: seals
      // make snapshots tamper-evident, but a plaintext snapshot (sign-only
      // log) is not, and the claimed head is what the committed-head check
      // later trusts.
      Bytes chain = empty_head;
      for (const LogEntry& entry : snap->entries) {
        chain = ExtendChain(chain, entry);
      }
      if (!ConstantTimeEqual(chain, snap->chain_head)) {
        return DataLoss("snapshot content does not match its chain head");
      }
    }
    auto walk = WalkSegments(options_.path, cipher_.get(), snap, TornTail::kRepair);
    if (!walk.ok() || !head_valid) {
      return walk;
    }
    if (stored_count < base) {
      return DataLoss("snapshot is newer than the committed head");
    }
    if (stored_count > base + walk->entries.size()) {
      return DataLoss("committed head covers more entries than the log holds");
    }
    const BytesView at = stored_count > base ? BytesView(walk->heads[stored_count - base - 1])
                         : snap != nullptr   ? BytesView(snap->chain_head)
                                             : BytesView(empty_head);
    if (!ConstantTimeEqual(at, stored_head)) {
      return PermissionDenied("recovered chain does not match the committed head");
    }
    return walk;
  };
  Result<SegmentWalk> walk = attempt(snapshot ? &*snapshot : nullptr);
  if (!walk.ok() && snapshot.has_value()) {
    snapshot.reset();
    walk = attempt(nullptr);
  }
  if (!walk.ok()) {
    return walk.status();
  }

  // 4. Rebuild the database and in-memory state.
  const size_t snapshot_entries = snapshot ? snapshot->entries.size() : 0;
  if (snapshot) {
    entries_ = std::move(snapshot->entries);
  }
  entries_.insert(entries_.end(), std::make_move_iterator(walk->entries.begin()),
                  std::make_move_iterator(walk->entries.end()));
  for (const LogEntry& entry : entries_) {
    SEAL_RETURN_IF_ERROR(db_.InsertRow(entry.table, entry.values));
    max_ticket_ = std::max(max_ticket_, entry.time);
  }
  entries_logged_ = entries_.size();
  chain_head_ = walk->chain;
  last_flushed_head_ = chain_head_;
  active_prev_head_ = chain_head_;
  persisted_bytes_ = (snapshot ? snapshot->persisted_bytes : 0) + walk->record_bytes;
  rewrite_epoch_ = walk->rewrite_epoch;
  const std::vector<uint32_t> archives = ListArchiveFiles(options_.path);
  next_archive_index_ = archives.empty() ? 0 : archives.back() + 1;

  // 5. Resume appending where the last segment left off.
  if (walk->segments > 0) {
    const uint32_t last = walk->segments - 1;
    const std::string last_path = SegmentFilePath(options_.path, last);
    if (walk->last_header && walk->last_header->closed != 0) {
      // Crash after a roll closed this segment but before the next one was
      // opened.
      active_segment_ = last + 1;
      segment_count_ = last + 1;
    } else if (walk->last_bytes <= kSegmentHeaderSize) {
      // No record reached the segment: its header was torn, or the crash
      // came before its first frame. Drop it; the next flush recreates the
      // same index and stamps the first ticket it really holds.
      RemoveFileIfExists(last_path);
      active_segment_ = last;
      segment_count_ = last;
    } else {
      if (walk->torn) {
        SEAL_RETURN_IF_ERROR(TruncateFile(last_path, walk->last_bytes));
      }
      active_segment_ = last;
      segment_count_ = last + 1;
      active_segment_open_ = true;
      active_segment_file_bytes_ = walk->last_bytes;
      active_prev_head_ = walk->last_header->prev_head;
      active_first_ticket_ = walk->last_header->first_ticket;
      active_last_ticket_ =
          entries_.empty() ? walk->last_header->first_ticket : entries_.back().time;
    }
  }
  bytes_since_snapshot_ = 0;
  recovered_ = true;

  out.snapshot_loaded = snapshot.has_value();
  out.snapshot_entries = snapshot_entries;
  out.replayed_entries = entries_.size() - snapshot_entries;
  out.discarded_records = walk->torn ? 1 : 0;
  out.max_ticket = max_ticket_;

  // 6. Re-commit: the restarted ROTE cluster starts a fresh counter epoch,
  //    so the recovered head must be rebound to a value this cluster will
  //    report (and a missing/torn head replaced).
  if (out.had_state) {
    SEAL_RETURN_IF_ERROR(CommitHead());
  }

  out.recovery_nanos = NowNanos() - t0;
  SEAL_OBS_COUNTER("log_recovery_replayed_entries").Add(out.replayed_entries);
  SEAL_OBS_COUNTER("log_recovery_discarded_records_total").Add(out.discarded_records);
  SEAL_OBS_HISTOGRAM("log_recovery_nanos").Observe(static_cast<uint64_t>(out.recovery_nanos));
  return Status::Ok();
}

Result<std::vector<LogEntry>> AuditLog::ReadVerifiedEntries(const std::string& path,
                                                            const Bytes& encryption_key) {
  std::optional<crypto::Aes128Gcm> cipher;
  if (!encryption_key.empty()) {
    cipher.emplace(encryption_key);
  }
  auto walk = WalkSegments(path, cipher ? &*cipher : nullptr, nullptr, TornTail::kReject);
  if (!walk.ok()) {
    return walk.status();
  }
  return std::move(walk->entries);
}

Result<size_t> AuditLog::VerifyLogFile(const std::string& path,
                                       const crypto::EcdsaPublicKey& log_public_key,
                                       const rote::RoteCounter& counter,
                                       const Bytes& encryption_key,
                                       VerifiedHeadInfo* head_out) {
  std::optional<crypto::Aes128Gcm> cipher;
  if (!encryption_key.empty()) {
    cipher.emplace(encryption_key);
  }
  auto walk = WalkSegments(path, cipher ? &*cipher : nullptr, nullptr, TornTail::kReject);
  if (!walk.ok()) {
    return walk.status();
  }

  auto sig_data = ReadFileBytes(HeadFilePath(path));
  if (!sig_data.ok()) {
    return sig_data.status();
  }
  if (sig_data->size() != crypto::kSha256DigestSize + 16 + 64) {
    return DataLoss("malformed log head file");
  }
  BytesView stored_head = BytesView(*sig_data).subspan(0, crypto::kSha256DigestSize);
  uint64_t stored_counter = LoadBe64(sig_data->data() + crypto::kSha256DigestSize);
  uint64_t stored_count = LoadBe64(sig_data->data() + crypto::kSha256DigestSize + 8);
  auto sig = crypto::EcdsaSignature::Decode(
      BytesView(*sig_data).subspan(crypto::kSha256DigestSize + 16, 64));
  if (!sig.has_value()) {
    return DataLoss("malformed head signature");
  }
  Bytes signed_blob(sig_data->begin(),
                    sig_data->begin() + static_cast<ptrdiff_t>(crypto::kSha256DigestSize + 16));
  if (!log_public_key.Verify(signed_blob, *sig)) {
    return PermissionDenied("log head signature invalid: tampered or forged log");
  }
  if (!ConstantTimeEqual(stored_head, walk->chain)) {
    return PermissionDenied("hash chain mismatch: log entries modified");
  }
  if (stored_count != walk->entries.size()) {
    return PermissionDenied("entry count mismatch");
  }
  auto current = counter.Read();
  if (!current.ok()) {
    return current.status();
  }
  if (stored_counter != *current) {
    return PermissionDenied("rollback detected: counter " + std::to_string(stored_counter) +
                            " but cluster reports " + std::to_string(*current));
  }
  if (head_out != nullptr) {
    head_out->counter_value = stored_counter;
    head_out->entry_count = stored_count;
    head_out->chain_head = Bytes(stored_head.begin(), stored_head.end());
  }
  return walk->entries.size();
}

Result<std::vector<LogEntry>> AuditLog::ReadArchivedEntries(const std::string& path,
                                                            const Bytes& encryption_key,
                                                            const sgx::Enclave* sealing_enclave,
                                                            sgx::SealPolicy seal_policy) {
  SealContext ctx;
  ctx.encryption_key = &encryption_key;
  ctx.enclave = sealing_enclave;
  ctx.policy = seal_policy;
  std::vector<LogEntry> all;
  const std::vector<uint32_t> archives = ListArchiveFiles(path);
  for (size_t i = 0; i < archives.size(); ++i) {
    if (archives[i] != i) {
      return DataLoss("missing trim archive " + std::to_string(i));
    }
    auto entries = ReadArchiveFile(ArchiveFilePath(path, static_cast<uint32_t>(i)), ctx);
    if (!entries.ok()) {
      return entries.status();
    }
    all.insert(all.end(), std::make_move_iterator(entries->begin()),
               std::make_move_iterator(entries->end()));
  }
  return all;
}

Result<std::vector<LogEntry>> AuditLog::ReadFullHistory(const std::string& path,
                                                        const Bytes& encryption_key,
                                                        const sgx::Enclave* sealing_enclave,
                                                        sgx::SealPolicy seal_policy) {
  auto archived = ReadArchivedEntries(path, encryption_key, sealing_enclave, seal_policy);
  if (!archived.ok()) {
    return archived.status();
  }
  auto live = ReadVerifiedEntries(path, encryption_key);
  if (!live.ok()) {
    return live.status();
  }
  std::vector<LogEntry> all = std::move(*archived);
  all.insert(all.end(), std::make_move_iterator(live->begin()),
             std::make_move_iterator(live->end()));
  std::stable_sort(all.begin(), all.end(),
                   [](const LogEntry& a, const LogEntry& b) { return a.time < b.time; });
  return all;
}

}  // namespace seal::core

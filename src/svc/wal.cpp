#include "svc/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "util/frame.hpp"

namespace resmatch::svc {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kMagicSize = 8;
constexpr char kFileMagic[kMagicSize] = {'R', 'S', 'M', 'W',
                                         'A', 'L', '0', '1'};
constexpr char kSnapshotMagic[kMagicSize] = {'R', 'S', 'M', 'S',
                                             'N', 'A', 'P', '1'};
constexpr std::size_t kPayloadPrefix = 9;  // u8 type + u64 key

/// A record payload must hold the type/key prefix plus whole f64 fields;
/// anything else is a torn or foreign frame. Checked before any payload
/// bytes are read.
bool valid_record_len(std::uint32_t len) {
  return len >= kPayloadPrefix &&
         (len - kPayloadPrefix) % sizeof(double) == 0;
}

/// Parse "wal-<gen>-<shard>.log"; returns false for other names. The %n
/// position must land exactly at the end of the name so near-misses like
/// "wal-1-0.log.bak" are never replayed or garbage-collected as live logs.
bool parse_wal_name(const std::string& name, std::uint64_t& gen,
                    std::size_t& shard) {
  unsigned long long g = 0;
  unsigned long long s = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "wal-%llu-%llu.log%n", &g, &s, &consumed) !=
          2 ||
      static_cast<std::size_t>(consumed) != name.size()) {
    return false;
  }
  gen = g;
  shard = static_cast<std::size_t>(s);
  return true;
}

bool write_fully(int fd, const char* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync a directory, making the entries created or renamed in it durable.
bool sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Append one record frame to `buf`, encoding the payload in place (no
/// staging copy); frame_end patches the length and CRC over exactly the
/// bytes that land on disk.
void encode_record(std::vector<char>& buf, WalRecordType type,
                   std::uint64_t key, const double* fields,
                   std::size_t n_fields) {
  buf.reserve(buf.size() + util::kFrameHeaderSize + kPayloadPrefix +
              n_fields * sizeof(double));
  const std::size_t mark = util::frame_begin(buf);
  buf.push_back(static_cast<char>(type));
  char kb[8];
  std::memcpy(kb, &key, 8);
  buf.insert(buf.end(), kb, kb + 8);
  for (std::size_t i = 0; i < n_fields; ++i) {
    char fb[8];
    std::memcpy(fb, &fields[i], 8);
    buf.insert(buf.end(), fb, fb + 8);
  }
  util::frame_end(buf, mark);
}

/// A stdio file that closes itself, so an exception from a caller's
/// callback leaks no descriptor.
struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// How read_records() left a file.
enum class FileEnd {
  kEof,       ///< every frame was good and accepted, up to the file's end
  kNoFile,    ///< could not be opened
  kBadMagic,  ///< shorter than the magic, or another magic
  kBadFrame,  ///< a torn or corrupt frame, or a record `fn` refused
};

/// The one per-file frame loop of log replay and snapshot load: check the
/// magic, then hand each frame's record to `fn` until the file's end or
/// the first frame that is bad or that `fn` refuses. A frame's length is
/// bounded by the bytes left in the file, which rejects a garbage length
/// before it becomes an allocation and lets a frame of any size replay.
FileEnd read_records(const std::string& path, const char* magic,
                     const RecordFn& fn) {
  const File f(std::fopen(path.c_str(), "rb"));
  struct stat st {};
  if (!f || ::fstat(::fileno(f.get()), &st) != 0) return FileEnd::kNoFile;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  char head[kMagicSize];
  FileEnd end = FileEnd::kEof;
  if (std::fread(head, 1, kMagicSize, f.get()) != kMagicSize ||
      std::memcmp(head, magic, kMagicSize) != 0) {
    end = FileEnd::kBadMagic;
  }
  std::uint64_t offset = kMagicSize;
  std::vector<char> payload;
  std::vector<double> fields;
  while (end == FileEnd::kEof && offset < size) {
    const std::uint64_t left = size - offset;
    const std::uint64_t max_payload =
        left > util::kFrameHeaderSize ? left - util::kFrameHeaderSize : 0;
    if (util::read_frame(f.get(), payload,
                         static_cast<std::uint32_t>(
                             std::min<std::uint64_t>(max_payload, UINT32_MAX)),
                         valid_record_len) != util::FrameReadStatus::kOk) {
      end = FileEnd::kBadFrame;  // torn, corrupt, or a stub of a header
      break;
    }
    offset += util::kFrameHeaderSize + payload.size();
    const auto type =
        static_cast<WalRecordType>(static_cast<std::uint8_t>(payload[0]));
    std::uint64_t key = 0;
    std::memcpy(&key, payload.data() + 1, 8);
    // double has no alignment guarantee inside the payload; copy out.
    fields.resize((payload.size() - kPayloadPrefix) / sizeof(double));
    if (!fields.empty()) {
      std::memcpy(fields.data(), payload.data() + kPayloadPrefix,
                  fields.size() * sizeof(double));
    }
    if (!fn(type, key, fields.data(), fields.size())) {
      end = FileEnd::kBadFrame;
    }
  }
  return end;
}

}  // namespace

util::Expected<std::unique_ptr<Wal>> Wal::open(WalConfig config) {
  using Result = util::Expected<std::unique_ptr<Wal>>;
  if (config.dir.empty()) return Result::failure("empty WAL directory");
  config.shards = std::max<std::size_t>(1, config.shards);
  config.flush_every = std::max<std::size_t>(1, config.flush_every);
  config.fsync_every = std::max<std::size_t>(1, config.fsync_every);

  std::error_code ec;
  fs::create_directories(config.dir, ec);
  if (ec) {
    return Result::failure("cannot create WAL directory " + config.dir +
                           ": " + ec.message());
  }

  // Never append to an existing generation (its tail may be torn); start
  // strictly above everything on disk.
  std::uint64_t max_gen = 0;
  for (const auto& entry : fs::directory_iterator(config.dir, ec)) {
    std::uint64_t gen = 0;
    std::size_t shard = 0;
    if (parse_wal_name(entry.path().filename().string(), gen, shard)) {
      max_gen = std::max(max_gen, gen);
    }
  }

  auto wal = std::unique_ptr<Wal>(new Wal(std::move(config)));
  wal->gen_ = max_gen + 1;
  wal->shards_ = std::vector<Shard>(wal->config_.shards);
  for (std::size_t i = 0; i < wal->shards_.size(); ++i) {
    if (!wal->open_shard_file(wal->shards_[i], i, wal->gen_)) {
      return Result::failure("cannot open WAL file " +
                             wal->file_path(wal->gen_, i));
    }
  }
  if (!sync_dir(wal->config_.dir)) {
    return Result::failure("cannot fsync WAL directory " + wal->config_.dir);
  }
  return wal;
}

Wal::~Wal() {
  if (!crashed_) (void)flush_all();
  for (Shard& s : shards_) {
    if (s.fd >= 0) ::close(s.fd);
    s.fd = -1;
  }
}

std::string Wal::file_path(std::uint64_t gen, std::size_t shard) const {
  return config_.dir + "/wal-" + std::to_string(gen) + "-" +
         std::to_string(shard) + ".log";
}

int Wal::create_log_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return -1;
  // Stamp the magic immediately so replay can tell an empty log from a
  // foreign file; a crash before it completes reads as a torn file with
  // zero records, which is exactly what it is.
  if (!write_fully(fd, kFileMagic, sizeof(kFileMagic))) {
    ::close(fd);
    (void)::unlink(path.c_str());  // we created it; leave no magic-less stub
    return -1;
  }
  return fd;
}

bool Wal::open_shard_file(Shard& s, std::size_t index, std::uint64_t gen) {
  const int fd = create_log_file(file_path(gen, index));
  if (fd < 0) return false;
  s.fd = fd;
  s.durable_size = sizeof(kFileMagic);
  s.buf.clear();
  s.pending_records = 0;
  s.unsynced_records = 0;
  return true;
}

bool Wal::append(std::size_t shard, std::uint64_t key, const double* fields,
                 std::size_t n_fields) {
  return append_record(shard, WalRecordType::kUpsert, key, fields, n_fields);
}

bool Wal::append_heartbeat(std::size_t shard) {
  return append_record(shard, WalRecordType::kHeartbeat, 0, nullptr, 0);
}

std::size_t Wal::encode_locked(Shard& s, WalRecordType type,
                               std::uint64_t key, const double* fields,
                               std::size_t n_fields) {
  const std::size_t buf_before = s.buf.size();
  encode_record(s.buf, type, key, fields, n_fields);
  ++s.pending_records;
  return buf_before;
}

bool Wal::append_buffered(std::size_t shard, std::uint64_t key,
                          const double* fields, std::size_t n_fields) {
  Shard& s = shards_[shard % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  if (crashed_ || s.fd < 0) return false;
  (void)encode_locked(s, WalRecordType::kUpsert, key, fields, n_fields);
  appends_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Wal::append_model_buffered(std::size_t shard, const double* fields,
                                std::size_t n_fields) {
  Shard& s = shards_[shard % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  if (crashed_ || s.fd < 0) return false;
  (void)encode_locked(s, WalRecordType::kModelState, 0, fields, n_fields);
  appends_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Wal::commit(std::size_t shard) {
  Shard& s = shards_[shard % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  if (crashed_ || s.fd < 0) return false;
  if (s.pending_records >= config_.flush_every) {
    // flush_locked also runs the cadence fsync. No rollback on failure:
    // the buffer keeps every frame, in order, for the caller's retry.
    if (flush_locked(s) != FlushOutcome::kOk) {
      append_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  } else if (s.unsynced_records >= config_.fsync_every) {
    // A previous commit's flush landed but its cadence fsync failed;
    // retry the fsync alone.
    if (!fsync_locked(s)) {
      append_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

bool Wal::append_record(std::size_t shard, WalRecordType type,
                        std::uint64_t key, const double* fields,
                        std::size_t n_fields) {
  Shard& s = shards_[shard % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  if (crashed_ || s.fd < 0) return false;

  std::vector<char>& buf = s.buf;
  const std::size_t buf_before =
      encode_locked(s, type, key, fields, n_fields);

  if (s.pending_records >= config_.flush_every) {
    const FlushOutcome outcome = flush_locked(s);
    if (outcome != FlushOutcome::kOk) {
      if (outcome == FlushOutcome::kWriteFailed) {
        // The write was refused with the buffer intact: drop this record
        // (the caller was told it failed and may retry); earlier buffered
        // records stay pending for the next flush. After a failed fsync
        // the frames are already in the file and the buffer is consumed —
        // there is nothing to roll back, and resizing the (now empty)
        // buffer would plant zero-filled garbage for the next flush to
        // write mid-log.
        buf.resize(buf_before);
        --s.pending_records;
      }
      append_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  appends_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Wal::FlushOutcome Wal::flush_locked(Shard& s) {
  if (s.buf.empty()) {
    if (s.unsynced_records > 0 && !fsync_locked(s)) {
      return FlushOutcome::kFsyncFailed;
    }
    return FlushOutcome::kOk;
  }

  if (util::fault(config_.faults, util::FaultSite::kWalAppend)) {
    // Simulate a write torn partway through, then repair: a real crash
    // here would leave the torn frame for replay to drop; a surviving
    // process truncates back to the last durable offset so a retried
    // append never buries garbage mid-log.
    const std::size_t torn = std::max<std::size_t>(1, s.buf.size() / 2);
    (void)write_fully(s.fd, s.buf.data(), torn);
    (void)::ftruncate(s.fd, static_cast<off_t>(s.durable_size));
    (void)::lseek(s.fd, 0, SEEK_END);
    return FlushOutcome::kWriteFailed;
  }

  if (!write_fully(s.fd, s.buf.data(), s.buf.size())) {
    (void)::ftruncate(s.fd, static_cast<off_t>(s.durable_size));
    (void)::lseek(s.fd, 0, SEEK_END);
    return FlushOutcome::kWriteFailed;
  }
  s.durable_size += s.buf.size();
  bytes_written_.fetch_add(s.buf.size(), std::memory_order_relaxed);
  s.unsynced_records += s.pending_records;
  s.buf.clear();
  s.pending_records = 0;

  if (s.unsynced_records >= config_.fsync_every && !fsync_locked(s)) {
    return FlushOutcome::kFsyncFailed;
  }
  return FlushOutcome::kOk;
}

bool Wal::fsync_locked(Shard& s) {
  if (util::fault(config_.faults, util::FaultSite::kWalFsync)) return false;
  if (::fsync(s.fd) != 0) return false;
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  s.unsynced_records = 0;
  return true;
}

bool Wal::flush(std::size_t shard) {
  Shard& s = shards_[shard % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  if (crashed_ || s.fd < 0) return false;
  if (flush_locked(s) != FlushOutcome::kOk) return false;
  if (s.unsynced_records > 0 && !fsync_locked(s)) return false;
  return true;
}

bool Wal::flush_all() {
  bool ok = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ok = flush(i) && ok;
  }
  return ok;
}

bool Wal::rotate() {
  // Lock order: shard 0..n-1, matching no other multi-shard path (append
  // takes exactly one shard lock), so rotation cannot deadlock traffic.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& s : shards_) locks.emplace_back(s.mutex);
  if (crashed_) return false;

  for (Shard& s : shards_) {
    if (flush_locked(s) != FlushOutcome::kOk) return false;
    if (s.unsynced_records > 0 && !fsync_locked(s)) return false;
  }

  // Pick the next generation by rescanning the directory (as open()
  // does), not by assuming gen_+1 is free: a previously failed rotation
  // or an operator copying files in could otherwise make every retry
  // collide on O_EXCL forever.
  std::uint64_t next = gen_ + 1;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    std::uint64_t gen = 0;
    std::size_t shard = 0;
    if (parse_wal_name(entry.path().filename().string(), gen, shard)) {
      next = std::max(next, gen + 1);
    }
  }

  // Create every next-generation file, and make their entries durable,
  // before touching a live fd, so a partial failure leaves all shards
  // serving their current files and no orphaned partial generation on
  // disk — rotation stays retryable and appends keep working either way.
  std::vector<int> new_fds(shards_.size(), -1);
  const auto discard = [&](std::size_t created) {
    for (std::size_t j = 0; j < created; ++j) {
      ::close(new_fds[j]);
      (void)::unlink(file_path(next, j).c_str());
    }
    return false;
  };
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!util::fault(config_.faults, util::FaultSite::kWalRotate)) {
      new_fds[i] = create_log_file(file_path(next, i));
    }
    if (new_fds[i] < 0) return discard(i);
  }
  if (!sync_dir(config_.dir)) return discard(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (s.fd >= 0) ::close(s.fd);
    s.fd = new_fds[i];
    s.durable_size = sizeof(kFileMagic);
    s.buf.clear();
    s.pending_records = 0;
    s.unsynced_records = 0;
  }
  gen_ = next;
  rotations_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Wal::remove_old_generations() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    std::uint64_t gen = 0;
    std::size_t shard = 0;
    if (parse_wal_name(entry.path().filename().string(), gen, shard) &&
        gen < gen_) {
      fs::remove(entry.path(), ec);
    }
  }
}

WalStats Wal::stats() const {
  WalStats out;
  out.appends = appends_.load(std::memory_order_relaxed);
  out.append_failures = append_failures_.load(std::memory_order_relaxed);
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  out.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  out.rotations = rotations_.load(std::memory_order_relaxed);
  return out;
}

void Wal::simulate_crash(bool leave_torn_tail) {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& s : shards_) locks.emplace_back(s.mutex);
  if (leave_torn_tail && !shards_.empty()) {
    // Half of a plausible frame: a length word promising more payload
    // than follows. Replay must drop it.
    Shard& s = shards_[0];
    if (s.fd >= 0) {
      std::vector<char> torn;
      util::put_u32(torn, 64);
      util::put_u32(torn, 0xDEADBEEFu);
      torn.push_back('\x01');
      (void)write_fully(s.fd, torn.data(), torn.size());
    }
  }
  for (Shard& s : shards_) {
    s.buf.clear();  // buffered-but-unflushed records die with the process
    s.pending_records = 0;
    if (s.fd >= 0) ::close(s.fd);
    s.fd = -1;
  }
  crashed_ = true;
}

util::Expected<WalReplayStats> Wal::replay_typed(
    const std::string& dir,
    const std::function<void(WalRecordType, std::uint64_t, const double*,
                             std::size_t)>& fn) {
  using Result = util::Expected<WalReplayStats>;
  WalReplayStats stats;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return stats;

  // (gen, shard) -> path; the map iterates generations in order, and
  // within a generation per-key ordering is per-shard (one key lives in
  // exactly one shard file per session), so this order replays every
  // key's records oldest-to-newest.
  std::map<std::pair<std::uint64_t, std::size_t>, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t gen = 0;
    std::size_t shard = 0;
    if (parse_wal_name(entry.path().filename().string(), gen, shard)) {
      files[{gen, shard}] = entry.path().string();
    }
  }

  for (const auto& [key, path] : files) {
    (void)key;
    const FileEnd end = read_records(
        path, kFileMagic,
        [&](WalRecordType type, std::uint64_t record_key,
            const double* fields, std::size_t n_fields) {
          if (type == WalRecordType::kHeartbeat) {
            ++stats.heartbeats;
            return true;
          }
          if (type != WalRecordType::kUpsert &&
              type != WalRecordType::kModelState) {
            return false;  // not a log record: read as a torn tail
          }
          ++(type == WalRecordType::kUpsert ? stats.records
                                            : stats.model_records);
          fn(type, record_key, fields, n_fields);
          return true;
        });
    if (end == FileEnd::kNoFile) {
      return Result::failure("cannot open WAL file " + path);
    }
    ++stats.files;
    // A magic cut short (a crash right after the create) or a bad frame:
    // replay keeps the records before it and moves on.
    if (end != FileEnd::kEof) ++stats.torn_files;
  }
  return stats;
}

bool write_snapshot(const std::string& path,
                    const std::function<void(const RecordSink&)>& fill,
                    util::FaultInjector* faults) {
  if (util::fault(faults, util::FaultSite::kStoreWrite)) {
    return false;  // injected: writer failed before touching the disk
  }
  const std::string tmp = path + ".tmp";
  File f(std::fopen(tmp.c_str(), "wb"));
  if (!f) return false;
  std::vector<char> frame;
  std::uint64_t records = 0;
  const RecordSink put = [&](WalRecordType type, std::uint64_t key,
                             const double* fields, std::size_t n_fields) {
    frame.clear();
    encode_record(frame, type, key, fields, n_fields);
    std::fwrite(frame.data(), 1, frame.size(), f.get());
    ++records;
  };
  std::fwrite(kSnapshotMagic, 1, kMagicSize, f.get());
  fill(put);
  put(WalRecordType::kSnapshotEnd, records, nullptr, 0);
  bool ok = std::fflush(f.get()) == 0 && std::ferror(f.get()) == 0 &&
            ::fsync(::fileno(f.get())) == 0;
  ok = std::fclose(f.release()) == 0 && ok;
  if (!ok || util::fault(faults, util::FaultSite::kSnapshotRename) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    // The previous snapshot is intact by construction; drop the temp file.
    std::remove(tmp.c_str());
    return false;
  }
  const std::string dir = fs::path(path).parent_path().string();
  return sync_dir(dir.empty() ? "." : dir);
}

util::Expected<std::uint64_t> read_snapshot(const std::string& path,
                                            const RecordFn& fn,
                                            util::FaultInjector* faults) {
  using Result = util::Expected<std::uint64_t>;
  if (util::fault(faults, util::FaultSite::kStoreRead)) {
    return Result::failure("injected store-read fault: " + path);
  }
  std::uint64_t records = 0;
  bool ended = false;
  const FileEnd end = read_records(
      path, kSnapshotMagic,
      [&](WalRecordType type, std::uint64_t key, const double* fields,
          std::size_t n_fields) {
        if (ended) return false;  // nothing may follow the end frame
        if (type == WalRecordType::kSnapshotEnd) {
          ended = key == records && n_fields == 0;
          return ended;
        }
        if (type != WalRecordType::kUpsert &&
            type != WalRecordType::kModelState) {
          return false;
        }
        if (!fn(type, key, fields, n_fields)) return false;
        ++records;
        return true;
      });
  if (end == FileEnd::kNoFile) {
    return Result::failure("cannot open snapshot " + path);
  }
  if (end == FileEnd::kBadMagic) {
    return Result::failure("bad snapshot magic (an older format?): " + path);
  }
  if (end != FileEnd::kEof || !ended) {
    return Result::failure("corrupt or cut-short snapshot " + path +
                           " after " + std::to_string(records) + " records");
  }
  return records;
}

}  // namespace resmatch::svc

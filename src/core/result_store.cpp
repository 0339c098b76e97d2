#include "core/result_store.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/fault.hpp"
#include "io/bytes.hpp"

namespace dart::core {

namespace {

// Frame header: magic 'DRS1' + payload length + payload checksum.
constexpr std::uint32_t kRecordMagic = 0x31535244u;  // "DRS1" little-endian
constexpr std::size_t kFrameHeader = 4 + 4 + 8;
constexpr std::uint8_t kRecordVersion = 1;

void serialize_record(const CellRecord& rec, io::ByteWriter* payload) {
  payload->u8(kRecordVersion);
  payload->u64(rec.key);
  payload->u8(static_cast<std::uint8_t>(rec.status));
  payload->u32(rec.attempts);
  payload->str(rec.error);
  const ExperimentCell& c = rec.cell;
  payload->str(c.spec);
  payload->str(c.prefetcher);
  payload->str(c.app);
  payload->f64(c.baseline_ipc);
  payload->f64(c.ipc_improvement);
  payload->u64(c.stats.instructions);
  payload->u64(c.stats.cycles);
  payload->u64(c.stats.llc_accesses);
  payload->u64(c.stats.llc_hits);
  payload->u64(c.stats.llc_demand_misses);
  payload->u64(c.stats.pf_issued);
  payload->u64(c.stats.pf_useful);
  payload->u64(c.stats.pf_late);
  payload->u64(c.stats.pf_dropped);
  payload->u64(c.storage_bytes);
  payload->u64(c.latency_cycles);
}

CellRecord parse_record(const std::uint8_t* data, std::size_t n) {
  io::ByteReader r(data, n);
  const std::uint8_t version = r.u8();
  if (version != kRecordVersion) {
    throw io::ArtifactError("result-store record version " + std::to_string(version) +
                            " is not supported");
  }
  CellRecord rec;
  rec.key = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(CellStatus::kSkipped)) {
    throw io::ArtifactError("result-store record has invalid status " + std::to_string(status));
  }
  rec.status = static_cast<CellStatus>(status);
  rec.attempts = r.u32();
  rec.error = r.str();
  ExperimentCell& c = rec.cell;
  c.spec = r.str();
  c.prefetcher = r.str();
  c.app = r.str();
  c.baseline_ipc = r.f64();
  c.ipc_improvement = r.f64();
  c.stats.instructions = r.u64();
  c.stats.cycles = r.u64();
  c.stats.llc_accesses = r.u64();
  c.stats.llc_hits = r.u64();
  c.stats.llc_demand_misses = r.u64();
  c.stats.pf_issued = r.u64();
  c.stats.pf_useful = r.u64();
  c.stats.pf_late = r.u64();
  c.stats.pf_dropped = r.u64();
  c.storage_bytes = static_cast<std::size_t>(r.u64());
  c.latency_cycles = static_cast<std::size_t>(r.u64());
  if (!r.done()) {
    throw io::ArtifactError("result-store record payload has " +
                            std::to_string(r.remaining()) + " trailing bytes");
  }
  c.status = rec.status;
  c.attempts = rec.attempts;
  c.error = rec.error;
  return rec;
}

/// Appends `rec` to `out` as one frame: magic, payload length, FNV-1a of
/// the payload, then the payload. Both log writers (append and compact)
/// frame through here.
void append_frame(const CellRecord& rec, std::vector<std::uint8_t>* out) {
  io::ByteWriter payload;
  serialize_record(rec, &payload);
  io::ByteWriter header;
  header.u32(kRecordMagic);
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u64(io::fnv1a64(payload.bytes().data(), payload.size()));
  out->insert(out->end(), header.bytes().begin(), header.bytes().end());
  out->insert(out->end(), payload.bytes().begin(), payload.bytes().end());
}

}  // namespace

std::uint64_t sweep_cell_key(const std::string& workload, const std::string& prefetcher,
                             const std::string& config) {
  // Chain the three length-prefixed strings so ("ab","c") and ("a","bc")
  // cannot collide.
  io::ByteWriter w;
  w.str(workload);
  w.str(prefetcher);
  w.str(config);
  return io::fnv1a64(w.bytes().data(), w.size());
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw io::ArtifactError("cannot create result-store directory '" + dir_ +
                            "': " + ec.message());
  }
  path_ = dir_ + "/results.log";
  replay_and_recover();
  open_append_fd();
}

ResultStore::~ResultStore() {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
}

void ResultStore::replay_and_recover() {
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    if (in) {
      const std::streamsize n = in.tellg();
      bytes.resize(static_cast<std::size_t>(n));
      in.seekg(0);
      if (n > 0) in.read(reinterpret_cast<char*>(bytes.data()), n);
      if (!in) throw io::ArtifactError("cannot read result store '" + path_ + "'");
    }
  }
  const std::size_t disk_size = bytes.size();
  // Chaos hook: an armed corrupt-store-tail fault chops the image here,
  // simulating the torn final write the recovery below must absorb.
  common::fault_injector().mutate_store(bytes);

  // Scan frames front to back; the first bad frame ends the valid prefix.
  // Everything after it is a torn tail: dropped, never trusted.
  std::size_t off = 0;
  while (off + kFrameHeader <= bytes.size()) {
    io::ByteReader header(bytes.data() + off, kFrameHeader);
    if (header.u32() != kRecordMagic) break;
    const std::uint32_t len = header.u32();
    const std::uint64_t checksum = header.u64();
    if (off + kFrameHeader + len > bytes.size()) break;
    const std::uint8_t* payload = bytes.data() + off + kFrameHeader;
    if (io::fnv1a64(payload, len) != checksum) break;
    CellRecord rec;
    try {
      rec = parse_record(payload, len);
    } catch (const io::ArtifactError&) {
      break;  // checksum collided with garbage; treat as torn
    }
    auto it = index_.find(rec.key);
    if (it == index_.end()) {
      index_.emplace(rec.key, records_.size());
      records_.push_back(std::move(rec));
    } else {
      records_[it->second] = std::move(rec);  // last record wins
    }
    off += kFrameHeader + len;
    ++recovery_.records;
  }

  recovery_.dropped_bytes = disk_size > off ? disk_size - off : 0;
  recovery_.truncated = recovery_.dropped_bytes > 0;
  if (recovery_.truncated) {
    std::cerr << "[result-store] '" << path_ << "': dropped " << recovery_.dropped_bytes
              << " torn trailing byte(s) at offset " << off << "; " << recovery_.records
              << " intact record(s) recovered\n";
  }
  // Make disk match the recovered prefix (atomically) so a later reader
  // never re-parses the torn tail we just rejected.
  if (off != disk_size) io::write_file_atomic(path_, bytes.data(), off);
}

void ResultStore::open_append_fd() {
#if defined(__unix__) || defined(__APPLE__)
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd_ < 0) throw io::ArtifactError("cannot open result store '" + path_ + "' for append");
#endif
}

std::size_t ResultStore::size() const {
  std::lock_guard lock(mu_);
  return records_.size();
}

bool ResultStore::find(std::uint64_t key, CellRecord* out) const {
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  *out = records_[it->second];
  return true;
}

std::vector<CellRecord> ResultStore::records() const {
  std::lock_guard lock(mu_);
  return records_;
}

void ResultStore::append(const CellRecord& rec) {
  std::vector<std::uint8_t> buf;
  append_frame(rec, &buf);

  std::unique_lock lock(mu_);
  if (crashed_) {
    throw SweepCrash("result store crashed by fault injection; resume the sweep");
  }
#if defined(__unix__) || defined(__APPLE__)
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t w = ::write(fd_, buf.data() + off, buf.size() - off);
    if (w < 0) throw io::ArtifactError("failed appending to result store '" + path_ + "'");
    off += static_cast<std::size_t>(w);
  }
  // The commit point: the record must be durable before the index reflects
  // it or any crash fault fires (resume correctness depends on it).
  if (::fsync(fd_) != 0) {
    throw io::ArtifactError("failed syncing result store '" + path_ + "'");
  }
#else
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    if (!out) throw io::ArtifactError("cannot open result store '" + path_ + "' for append");
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    out.flush();
    if (!out) throw io::ArtifactError("failed appending to result store '" + path_ + "'");
  }
#endif
  auto it = index_.find(rec.key);
  if (it == index_.end()) {
    index_.emplace(rec.key, records_.size());
    records_.push_back(rec);
  } else {
    records_[it->second] = rec;
  }

  const common::CrashAction crash = common::fault_injector().on_store_commit();
  if (crash == common::CrashAction::kExit) {
    // A real kill for CI resume tests: nothing unwinds, no destructors run,
    // exactly like SIGKILL — except the exit code proves it was injected.
    std::_Exit(common::kCrashExitCode);
  }
  if (crash == common::CrashAction::kThrow) {
    crashed_ = true;  // latch: concurrent workers stop committing too
    throw SweepCrash("injected sweep crash after durable commit of cell key " +
                     std::to_string(rec.key));
  }
}

void ResultStore::compact() {
  std::lock_guard lock(mu_);
  std::vector<std::uint8_t> image;
  for (const CellRecord& rec : records_) append_frame(rec, &image);
#if defined(__unix__) || defined(__APPLE__)
  // Close the append fd across the rename: the old inode is dead after it.
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
#endif
  io::write_file_atomic(path_, image.data(), image.size());
  open_append_fd();
}

}  // namespace dart::core

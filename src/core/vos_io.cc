#include "core/vos_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/fault_injector.h"
#include "core/sharded_vos_sketch.h"

namespace vos::core {
namespace {

/// XOR-fold checksum over the serialized payload (array words and
/// cardinalities), with position mixing so reordering is detected.
uint64_t Checksum(const std::vector<uint64_t>& words,
                  const std::vector<uint32_t>& cards) {
  uint64_t sum = 0x5b5e1ab1eULL;
  uint64_t index = 0;
  for (uint64_t w : words) sum ^= hash::Hash64(w, ++index);
  for (uint32_t c : cards) sum ^= hash::Hash64(c, ++index);
  return sum;
}

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked read of one POD at *pos; false (and no advance) when
/// fewer than sizeof(T) bytes remain. Every parser below goes through
/// this, so no size field is ever trusted before the bytes backing it are
/// known to exist.
template <typename T>
bool ReadPodAt(const uint8_t* data, size_t size, size_t* pos, T* value) {
  if (size - *pos < sizeof(T)) return false;
  std::memcpy(value, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failed: " + path);
  return bytes;
}

/// Appends one v3 section: header (type, id, payload size), payload, and
/// a CRC32 covering header AND payload — a flipped bit anywhere in the
/// section, including its length field, is pinned to this section.
void AppendSection(std::string* out, uint32_t type, uint32_t id,
                   const std::string& payload) {
  const size_t start = out->size();
  AppendPod(out, type);
  AppendPod(out, id);
  AppendPod(out, static_cast<uint64_t>(payload.size()));
  out->append(payload);
  AppendPod(out, Crc32(out->data() + start, out->size() - start));
}

/// Atomically commits `bytes` to `path`: temp file, fsync, rename, parent
/// fsync. The checkpoint fault sites hook in here (see
/// common/fault_injector.h): tear/corrupt damage the bytes but report
/// success (silent corruption, for Restore to catch); crash stops before
/// the rename so the previous checkpoint survives.
Status CommitDurably(std::string bytes, const std::string& path) {
  FaultInjector& injector = FaultInjector::Global();
  if (injector.armed()) {
    if (const std::optional<FaultSpec> spec =
            injector.FireCheckpoint(FaultSite::kCheckpointCorrupt)) {
      if (spec->byte_offset < bytes.size()) {
        bytes[spec->byte_offset] ^= 0x01;
      }
    }
    if (const std::optional<FaultSpec> spec =
            injector.FireCheckpoint(FaultSite::kCheckpointTear)) {
      bytes.resize(std::min<size_t>(bytes.size(), spec->byte_offset));
    }
  }
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open for writing: " + tmp + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IoError("write failed: " + tmp + ": " + err);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("fsync failed: " + tmp + ": " + err);
  }
  ::close(fd);
  if (injector.armed() &&
      injector.FireCheckpoint(FaultSite::kCheckpointCrash)) {
    // The "process died" between publishing the temp file and the
    // rename: path still holds whatever checkpoint it held before.
    return Status::IoError("injected crash before rename; " + path +
                           " was not replaced");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename failed: " + tmp + " -> " + path + ": " +
                           std::strerror(errno));
  }
  // fsync the parent directory so the rename itself is durable.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace

// ----------------------------------------------------------- VosSketchIo

void VosSketchIo::SerializeFields(const VosSketch& sketch,
                                  std::string* out) {
  AppendPod(out, sketch.config_.k);
  AppendPod(out, sketch.config_.m);
  AppendPod(out, sketch.config_.seed);
  AppendPod(out, static_cast<uint8_t>(sketch.config_.psi_kind));
  // The *resolved* f seed, so sketches built with a per-shard override
  // (VosConfig::f_seed) restore to the identical f family.
  AppendPod(out, sketch.f_seed_);
  AppendPod(out, static_cast<uint32_t>(sketch.cardinality_.size()));
  const std::vector<uint64_t>& words = sketch.array_.words();
  AppendPod(out, static_cast<uint64_t>(words.size()));
  out->append(reinterpret_cast<const char*>(words.data()),
              words.size() * sizeof(uint64_t));
  out->append(reinterpret_cast<const char*>(sketch.cardinality_.data()),
              sketch.cardinality_.size() * sizeof(uint32_t));
}

StatusOr<VosSketch> VosSketchIo::ParseFields(const uint8_t* data,
                                             size_t size, uint32_t version,
                                             const std::string& context,
                                             size_t* consumed) {
  size_t pos = 0;
  VosConfig config;
  uint8_t psi_kind = 0;
  uint32_t num_users = 0;
  uint64_t num_words = 0;
  if (!ReadPodAt(data, size, &pos, &config.k) ||
      !ReadPodAt(data, size, &pos, &config.m) ||
      !ReadPodAt(data, size, &pos, &config.seed) ||
      !ReadPodAt(data, size, &pos, &psi_kind)) {
    return Status::Corruption(context + ": truncated header");
  }
  if (version >= 2) {
    // v2 carries the resolved f-family seed (VosConfig::f_seed override).
    if (!ReadPodAt(data, size, &pos, &config.f_seed)) {
      return Status::Corruption(context + ": truncated header");
    }
  } else {
    // v1 predates the f_seed field: those sketches could only have been
    // written with the legacy default family, which f_seed == 0 makes
    // VosSketch re-derive from `seed` — the identical f cells.
    config.f_seed = 0;
  }
  if (!ReadPodAt(data, size, &pos, &num_users) ||
      !ReadPodAt(data, size, &pos, &num_words)) {
    return Status::Corruption(context + ": truncated header");
  }
  if (psi_kind > static_cast<uint8_t>(PsiKind::kTabulation)) {
    return Status::Corruption(context + ": unknown psi kind " +
                              std::to_string(psi_kind));
  }
  config.psi_kind = static_cast<PsiKind>(psi_kind);
  if (config.k == 0 || config.m == 0 || config.m > (uint64_t{1} << 48) ||
      num_words != (config.m + 63) / 64) {
    return Status::Corruption(context + ": inconsistent geometry");
  }
  // Validate the declared payload against the bytes actually present
  // BEFORE allocating anything: a size-lying header must fail with this
  // message, not with a multi-gigabyte allocation or a short read.
  const uint64_t payload_bytes =
      num_words * sizeof(uint64_t) +
      static_cast<uint64_t>(num_users) * sizeof(uint32_t);
  if (payload_bytes > size - pos) {
    return Status::Corruption(
        context + ": header declares " + std::to_string(payload_bytes) +
        " payload bytes but only " + std::to_string(size - pos) +
        " remain (truncated file?)");
  }
  std::vector<uint64_t> words(num_words);
  std::memcpy(words.data(), data + pos, num_words * sizeof(uint64_t));
  pos += num_words * sizeof(uint64_t);
  std::vector<uint32_t> cards(num_users);
  std::memcpy(cards.data(), data + pos, num_users * sizeof(uint32_t));
  pos += static_cast<size_t>(num_users) * sizeof(uint32_t);
  if (config.m % 64 != 0 && !words.empty() &&
      (words.back() >> (config.m % 64)) != 0) {
    return Status::Corruption(context + ": stray bits beyond m");
  }

  VosSketch sketch(config, static_cast<stream::UserId>(num_users));
  sketch.array_ = BitVector::FromWords(config.m, std::move(words));
  sketch.cardinality_ = std::move(cards);
  if (consumed != nullptr) *consumed = pos;
  return sketch;
}

Status VosSketchIo::Save(const VosSketch& sketch, const std::string& path) {
  std::string buffer;
  buffer.append(kMagic, 8);
  AppendPod(&buffer, kVersion);
  SerializeFields(sketch, &buffer);
  AppendPod(&buffer, Checksum(sketch.array_.words(), sketch.cardinality_));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.flush();
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

StatusOr<VosSketch> VosSketchIo::Load(const std::string& path) {
  VOS_ASSIGN_OR_RETURN(const std::string bytes, ReadWholeFile(path));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  const size_t size = bytes.size();
  if (size < 12) {
    return Status::Corruption(path + ": file too short for a header (" +
                              std::to_string(size) + " bytes)");
  }
  if (std::memcmp(data, kMagic, 8) != 0) {
    return Status::Corruption(path + ": bad magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, data + 8, sizeof(version));
  if (version < kMinVersion || version > kVersion) {
    return Status::Corruption(path + ": unsupported version " +
                              std::to_string(version));
  }
  size_t consumed = 0;
  VOS_ASSIGN_OR_RETURN(
      VosSketch sketch,
      ParseFields(data + 12, size - 12, version, path, &consumed));
  const size_t tail = 12 + consumed;
  if (size - tail < sizeof(uint64_t)) {
    return Status::Corruption(path + ": truncated payload (checksum missing)");
  }
  if (size - tail > sizeof(uint64_t)) {
    // An oversized file is as suspect as a truncated one: some other
    // writer appended to it, or the header under-declares its payload.
    return Status::Corruption(
        path + ": " + std::to_string(size - tail - sizeof(uint64_t)) +
        " trailing bytes after the checksum (oversized file)");
  }
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, data + tail, sizeof(stored_checksum));
  if (stored_checksum !=
      Checksum(sketch.array_.words(), sketch.cardinality_)) {
    return Status::Corruption(path + ": checksum mismatch");
  }
  return sketch;
}

// ---------------------------------------------------- ShardedCheckpointIo

const char* ShardedCheckpointIo::SectionName(uint32_t type) {
  switch (type) {
    case kSectionManifest:
      return "manifest";
    case kSectionDenseMap:
      return "dense_map";
    case kSectionWatermarks:
      return "watermarks";
    case kSectionShard:
      return "shard";
  }
  return "unknown";
}

Status ShardedCheckpointIo::Save(const ShardedVosSketch& sketch,
                                 const std::string& path) {
  // Serialize everything to memory first: the on-disk commit is then one
  // durable write-and-rename, and a crash at any point can never expose
  // a half-built file at `path`.
  std::string file;
  file.append(VosSketchIo::kMagic, 8);
  AppendPod(&file, kVersion);
  const uint32_t num_shards = sketch.router_.num_shards();
  const uint32_t lanes = static_cast<uint32_t>(sketch.accepted_.size());
  AppendPod(&file, static_cast<uint32_t>(3 + num_shards));  // section count
  {
    // Manifest: the geometry this checkpoint was taken under. Restore
    // refuses a live instance that disagrees on any field.
    std::string payload;
    AppendPod(&payload, num_shards);
    AppendPod(&payload, lanes);
    AppendPod(&payload, sketch.config_.base.k);
    AppendPod(&payload, sketch.config_.base.m);
    AppendPod(&payload, sketch.config_.base.seed);
    AppendPod(&payload, static_cast<uint8_t>(sketch.config_.base.psi_kind));
    AppendPod(&payload, static_cast<uint32_t>(sketch.num_users_));
    AppendSection(&file, kSectionManifest, 0, payload);
  }
  {
    // Dense remap forward table (empty with one shard: identity). The
    // map is derivable from (seed, num_shards, num_users), so on restore
    // this doubles as an end-to-end check that the live instance derived
    // the identical partition.
    std::string payload;
    const uint32_t entries = sketch.dense_remap() ? sketch.num_users_ : 0;
    AppendPod(&payload, entries);
    for (uint32_t u = 0; u < entries; ++u) {
      AppendPod(&payload,
                static_cast<uint32_t>(sketch.dense_map_.LocalOf(u)));
    }
    AppendSection(&file, kSectionDenseMap, 0, payload);
  }
  {
    // Per-lane ingest watermarks, recorded at the Flush barrier: lane p
    // resumes its stream from element accepted_[p].
    std::string payload;
    AppendPod(&payload, lanes);
    for (const std::atomic<uint64_t>& watermark : sketch.accepted_) {
      AppendPod(&payload, watermark.load(std::memory_order_relaxed));
    }
    AppendSection(&file, kSectionWatermarks, 0, payload);
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::string payload;
    VosSketchIo::SerializeFields(sketch.shards_[s], &payload);
    AppendSection(&file, kSectionShard, s, payload);
  }
  return CommitDurably(std::move(file), path);
}

Status ShardedCheckpointIo::Restore(ShardedVosSketch* sketch,
                                    const std::string& path) {
  VOS_ASSIGN_OR_RETURN(const std::string bytes, ReadWholeFile(path));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  const size_t size = bytes.size();
  if (size < 16) {
    return Status::Corruption(path +
                              ": file too short for a checkpoint header (" +
                              std::to_string(size) + " bytes)");
  }
  if (std::memcmp(data, VosSketchIo::kMagic, 8) != 0) {
    return Status::Corruption(path + ": bad magic");
  }
  uint32_t version = 0;
  uint32_t section_count = 0;
  std::memcpy(&version, data + 8, sizeof(version));
  std::memcpy(&section_count, data + 12, sizeof(section_count));
  if (version != kVersion) {
    return Status::Corruption(path + ": unsupported checkpoint version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kVersion) + ")");
  }

  // Stage 1: parse and verify EVERY section before touching live state.
  const uint32_t live_shards = sketch->router_.num_shards();
  std::vector<std::optional<VosSketch>> staged(live_shards);
  std::vector<uint64_t> watermarks;
  bool have_manifest = false;
  bool have_dense = false;
  bool have_watermarks = false;
  uint32_t manifest_shards = 0;
  uint32_t manifest_lanes = 0;
  size_t pos = 16;
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t section_start = pos;
    uint32_t type = 0;
    uint32_t id = 0;
    uint64_t payload_size = 0;
    if (!ReadPodAt(data, size, &pos, &type) ||
        !ReadPodAt(data, size, &pos, &id) ||
        !ReadPodAt(data, size, &pos, &payload_size)) {
      return Status::Corruption(
          path + ": truncated section header (section " + std::to_string(i) +
          " of " + std::to_string(section_count) + "; torn write?)");
    }
    const std::string tag = std::string(SectionName(type)) + "[" +
                            std::to_string(id) + "]";
    if (payload_size > size - pos) {
      return Status::Corruption(
          path + ": section " + tag + " declares " +
          std::to_string(payload_size) + " payload bytes but only " +
          std::to_string(size - pos) + " remain (torn write?)");
    }
    const uint8_t* payload = data + pos;
    pos += payload_size;
    uint32_t stored_crc = 0;
    if (!ReadPodAt(data, size, &pos, &stored_crc)) {
      return Status::Corruption(path + ": section " + tag +
                                " is missing its CRC (torn write?)");
    }
    const uint32_t actual_crc =
        Crc32(data + section_start, 16 + payload_size);
    if (actual_crc != stored_crc) {
      return Status::Corruption(path + ": CRC mismatch in section " + tag);
    }
    if (i == 0 && type != kSectionManifest) {
      return Status::Corruption(path +
                                ": first section must be the manifest, got " +
                                tag);
    }
    size_t p = 0;  // cursor within this section's payload
    switch (type) {
      case kSectionManifest: {
        uint32_t k = 0;
        uint64_t m = 0;
        uint64_t seed = 0;
        uint8_t psi_kind = 0;
        uint32_t num_users = 0;
        if (!ReadPodAt(payload, payload_size, &p, &manifest_shards) ||
            !ReadPodAt(payload, payload_size, &p, &manifest_lanes) ||
            !ReadPodAt(payload, payload_size, &p, &k) ||
            !ReadPodAt(payload, payload_size, &p, &m) ||
            !ReadPodAt(payload, payload_size, &p, &seed) ||
            !ReadPodAt(payload, payload_size, &p, &psi_kind) ||
            !ReadPodAt(payload, payload_size, &p, &num_users)) {
          return Status::Corruption(path + ": manifest section truncated");
        }
        const auto mismatch = [&](const std::string& what, uint64_t ckpt,
                                  uint64_t live) {
          return Status::FailedPrecondition(
              path + ": manifest mismatch: checkpoint has " + what + " = " +
              std::to_string(ckpt) + " but the live instance has " +
              std::to_string(live) +
              "; restore requires an identically configured sketch");
        };
        if (manifest_shards != live_shards) {
          return mismatch("num_shards", manifest_shards, live_shards);
        }
        if (manifest_lanes != sketch->accepted_.size()) {
          return mismatch("ingest_lanes", manifest_lanes,
                          sketch->accepted_.size());
        }
        if (k != sketch->config_.base.k) {
          return mismatch("k", k, sketch->config_.base.k);
        }
        if (m != sketch->config_.base.m) {
          return mismatch("m", m, sketch->config_.base.m);
        }
        if (seed != sketch->config_.base.seed) {
          return mismatch("seed", seed, sketch->config_.base.seed);
        }
        if (psi_kind !=
            static_cast<uint8_t>(sketch->config_.base.psi_kind)) {
          return mismatch(
              "psi_kind", psi_kind,
              static_cast<uint8_t>(sketch->config_.base.psi_kind));
        }
        if (num_users != sketch->num_users_) {
          return mismatch("num_users", num_users, sketch->num_users_);
        }
        have_manifest = true;
        break;
      }
      case kSectionDenseMap: {
        uint32_t entries = 0;
        if (!ReadPodAt(payload, payload_size, &p, &entries) ||
            payload_size - p != static_cast<uint64_t>(entries) * 4) {
          return Status::Corruption(path + ": dense_map section truncated");
        }
        const uint32_t expected =
            sketch->dense_remap() ? sketch->num_users_ : 0;
        if (entries != expected) {
          return Status::FailedPrecondition(
              path + ": dense_map covers " + std::to_string(entries) +
              " users but the live instance's remap covers " +
              std::to_string(expected));
        }
        for (uint32_t u = 0; u < entries; ++u) {
          uint32_t local = 0;
          ReadPodAt(payload, payload_size, &p, &local);
          if (local != sketch->dense_map_.LocalOf(u)) {
            // Same (seed, num_shards, num_users) must derive the same
            // map; a disagreement means the manifest match was a lie.
            return Status::FailedPrecondition(
                path + ": dense_map disagrees with the live remap at user " +
                std::to_string(u));
          }
        }
        have_dense = true;
        break;
      }
      case kSectionWatermarks: {
        uint32_t lanes = 0;
        if (!ReadPodAt(payload, payload_size, &p, &lanes) ||
            payload_size - p != static_cast<uint64_t>(lanes) * 8) {
          return Status::Corruption(path +
                                    ": watermarks section truncated");
        }
        if (lanes != sketch->accepted_.size()) {
          return Status::FailedPrecondition(
              path + ": watermarks cover " + std::to_string(lanes) +
              " lanes but the live instance has " +
              std::to_string(sketch->accepted_.size()));
        }
        watermarks.resize(lanes);
        for (uint32_t l = 0; l < lanes; ++l) {
          ReadPodAt(payload, payload_size, &p, &watermarks[l]);
        }
        have_watermarks = true;
        break;
      }
      case kSectionShard: {
        if (id >= live_shards) {
          return Status::Corruption(path + ": section " + tag +
                                    " names a shard out of range (have " +
                                    std::to_string(live_shards) + ")");
        }
        if (staged[id].has_value()) {
          return Status::Corruption(path + ": duplicate section " + tag);
        }
        size_t consumed = 0;
        StatusOr<VosSketch> parsed = VosSketchIo::ParseFields(
            payload, payload_size, /*version=*/2,
            path + " section " + tag, &consumed);
        if (!parsed.ok()) return parsed.status();
        if (consumed != payload_size) {
          return Status::Corruption(path + ": section " + tag + " has " +
                                    std::to_string(payload_size - consumed) +
                                    " trailing bytes");
        }
        if (!parsed->IsCompatibleWith(sketch->shards_[id])) {
          return Status::FailedPrecondition(
              path + ": section " + tag +
              " is incompatible with the live shard (k/m/seed/f_seed/"
              "user-count mismatch)");
        }
        staged[id] = std::move(parsed).value();
        break;
      }
      default:
        return Status::Corruption(path + ": unknown section type " +
                                  std::to_string(type));
    }
  }
  if (pos != size) {
    return Status::Corruption(path + ": " + std::to_string(size - pos) +
                              " trailing bytes after the last section");
  }
  if (!have_manifest || !have_dense || !have_watermarks) {
    return Status::Corruption(path + ": missing required section (" +
                              std::string(!have_manifest ? "manifest"
                                          : !have_dense ? "dense_map"
                                                        : "watermarks") +
                              ")");
  }
  for (uint32_t s = 0; s < live_shards; ++s) {
    if (!staged[s].has_value()) {
      return Status::Corruption(path + ": missing section shard[" +
                                std::to_string(s) + "]");
    }
  }

  // Stage 2: every section verified — commit atomically under the
  // pipeline lock. Element-wise moves keep the shards_ vector storage
  // (external references to shard(s) stay valid).
  {
    MutexLock lock(&sketch->mu_);
    for (uint32_t s = 0; s < live_shards; ++s) {
      sketch->shards_[s] = std::move(*staged[s]);
    }
    for (size_t p = 0; p < watermarks.size(); ++p) {
      // The lane resumes from its watermark with an empty buffer:
      // accepted == dispatched, nothing pending.
      sketch->accepted_[p].store(watermarks[p], std::memory_order_relaxed);
      sketch->dispatched_[p].store(watermarks[p], std::memory_order_relaxed);
    }
    for (Status& status : sketch->shard_status_) status = Status::OK();
    sketch->budget_status_ = Status::OK();
    sketch->dropped_elements_.store(0, std::memory_order_relaxed);
    bool still_degraded = false;
    // Recovery heals poisoning — except shards whose worker thread was
    // killed: a dead thread cannot be resurrected in-process.
    for (uint32_t s = 0; s < live_shards && !sketch->owner_.empty(); ++s) {
      if (sketch->worker_dead_[sketch->owner_[s]] != 0) {
        sketch->shard_status_[s] = Status::FailedPrecondition(
            "shard " + std::to_string(s) +
            ": owning worker thread was killed; restore this checkpoint "
            "into a fresh instance to resume ingest on this shard");
        still_degraded = true;
      }
    }
    sketch->degraded_.store(still_degraded, std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace vos::core

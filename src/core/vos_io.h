// Binary checkpoints of VOS sketches: the crash-safe snapshot of a whole
// ShardedVosSketch (checkpoint/restore, offline analysis of an online
// sketch) — every shard's sketch, the dense user remap and the per-lane
// ingest watermarks — in one sectioned file (little-endian, v3):
//
//   magic "VOSSKTCH" | u32 version = 3 | u32 section_count
//   section := u32 type | u32 id | u64 payload_bytes | payload | u32 crc32
//
// A shard section's payload is one sketch's fields (VosSketchIo):
//
//   u32 k | u64 m | u64 seed | u8 psi (always 0: the seeded mixer)
//   | u64 f_seed (resolved f-family seed; see VosConfig::f_seed)
//   | u32 num_users | u64 num_array_words | array words
//   | cardinalities (u32 × num_users)
//
// The CRC32 (IEEE, common/crc32.h) of each section covers its header AND
// payload, so a flipped bit anywhere in a section is pinned to that
// section by name in the error. The CRC does not vouch for the writer:
// every field is still checked, and every read is bounds-checked against
// the bytes actually present BEFORE anything is allocated, so a
// size-lying section fails with a Corruption status naming the section
// and what was expected, never with a wild allocation or a silent short
// read. A psi byte other than 0 is Corruption ("unknown psi kind").
//
// The manifest (first section, always) records the geometry the
// checkpoint was taken under; Restore refuses a mismatched live instance
// instead of guessing. Writing is atomic: everything is serialized to
// memory, written to `path + ".tmp"`, fsynced, renamed over `path`, and
// the parent directory fsynced — a crash at any point leaves either the
// old checkpoint or the new one, never a blend. Restore is
// all-or-nothing: every section is CRC-verified and staged before one
// byte of live state changes.

#pragma once

#include <string>

#include "common/status.h"
#include "core/vos_sketch.h"

namespace vos::core {

class ShardedVosSketch;

/// Stateless field codec for one VosSketch (friend of the class): the
/// payload of a v3 shard section.
class VosSketchIo {
 public:
  /// Appends the sketch's field layout (see file comment) to `out`.
  static void SerializeFields(const VosSketch& sketch, std::string* out);

  /// Bounds-checked inverse of SerializeFields over [data, data + size):
  /// parses one sketch. `context` prefixes error messages; `*consumed`
  /// receives the bytes read on success.
  static StatusOr<VosSketch> ParseFields(const uint8_t* data, size_t size,
                                         const std::string& context,
                                         size_t* consumed);

  /// The magic that opens every checkpoint file.
  static constexpr char kMagic[9] = "VOSSKTCH";
  /// The psi byte every sketch carries: ψ is the seeded mixer
  /// (VosSketch::BucketOf). ParseFields and the manifest check reject any
  /// other value.
  static constexpr uint8_t kPsiMixer = 0;
};

/// Atomic, CRC-checked whole-pipeline checkpoints of a ShardedVosSketch
/// (the v3 sectioned container; see file comment). Friend of
/// ShardedVosSketch — use ShardedVosSketch::Checkpoint()/Restore(), which
/// add the flush barrier and degraded-pipeline refusal on top.
class ShardedCheckpointIo {
 public:
  /// Serializes the (quiesced) sketch and atomically commits it to
  /// `path`: temp file + fsync + rename + parent fsync. IoError on
  /// filesystem problems. Honors the checkpoint fault-injection sites
  /// (common/fault_injector.h): tear/corrupt produce a damaged file that
  /// still "succeeds" (silent corruption for Restore to catch), crash
  /// leaves only the temp file and returns IoError.
  static Status Save(const ShardedVosSketch& sketch,
                     const std::string& path);

  /// Restores `path` into `sketch`. All-or-nothing: parses and verifies
  /// every section (structure, CRC, manifest-vs-live-config match, shard
  /// completeness) into staged state first; any failure — named by
  /// section — leaves `sketch` untouched. On success shard state,
  /// watermarks and sticky statuses are replaced under the pipeline lock.
  static Status Restore(ShardedVosSketch* sketch, const std::string& path);

  /// The container version this writer produces.
  static constexpr uint32_t kVersion = 3;

  // Section types of the v3 container.
  static constexpr uint32_t kSectionManifest = 1;
  static constexpr uint32_t kSectionDenseMap = 2;
  static constexpr uint32_t kSectionWatermarks = 3;
  static constexpr uint32_t kSectionShard = 4;

  /// Stable name of a section type ("manifest", "shard", ...), used in
  /// every Restore error so a damaged file names its damaged section.
  static const char* SectionName(uint32_t type);
};

}  // namespace vos::core

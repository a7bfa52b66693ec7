// Crash-safe checkpoint journal for resilient runs.
//
// Discovery over many target tables is a batch job; a mid-run crash or
// kill must not lose the tables already finished. RunResilientPipeline
// stores one record per completed work unit — the table's cascade
// outcome, its raw (pre-merge) mappings and its provenance, fully
// serialized as a semap.checkpoint.v1 unit line — in a
// store::MappingStore, whose
// semap.journal.v1 container makes every append an fsynced,
// CRC32-framed record (store/journal.h). A run restarted with
// --resume=<journal> replays the store, skips the finished tables, and
// merges the cached mappings as if they had just been computed, so the
// final mapping set — and, with journaled provenance, the --explain
// output — is identical to an uninterrupted run.
//
// The unit line itself also carries a trailing "crc" member (CRC32 of
// the line with that member removed), checked on every parse on top of
// the frame checksum. A file that is not a semap.journal.v1 store is
// refused on resume, untouched.
//
// The fingerprint is a stable 64-bit hash over both schemas and the
// correspondence set; resuming against different inputs is refused
// rather than silently merging stale mappings. The format is documented
// in docs/FORMATS.md; the crash-safety contract is in
// docs/ROBUSTNESS.md.
#ifndef SEMAP_EXEC_CHECKPOINT_H_
#define SEMAP_EXEC_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/resilient_pipeline.h"
#include "obs/provenance.h"
#include "semantics/stree.h"
#include "store/mapping_store.h"
#include "util/result.h"

namespace semap::exec {

inline constexpr const char kCheckpointSchema[] = "semap.checkpoint.v1";

/// \brief One journaled work unit: a finished table's outcome, raw
/// mappings (pre-merge — dedup against other tables happens at
/// assembly, so resume reproduces the exact merge), and the
/// unit's provenance so a resumed --explain matches an uninterrupted
/// run's byte-for-byte.
struct CheckpointedUnit {
  TableOutcome outcome;
  std::vector<ResilientMapping> mappings;
  /// Pre-merge provenance captured at unit completion; every unit line
  /// carries it.
  obs::TableProvenance provenance;
};

/// \brief Stable scenario fingerprint: schemas (tables, columns, keys)
/// plus the correspondence set. Order-sensitive on purpose — the
/// journal caches *this* run's inputs, nothing weaker.
uint64_t ScenarioFingerprint(
    const sem::AnnotatedSchema& source, const sem::AnnotatedSchema& target,
    const std::vector<disc::Correspondence>& correspondences);

/// Serialize / parse one semap.checkpoint.v1 unit line (also used by
/// tests to pin the format). Serialization always writes the "prov"
/// member and appends the "crc" member; parsing requires both and
/// validates the crc.
std::string SerializeCheckpointUnit(const CheckpointedUnit& unit);
Result<CheckpointedUnit> ParseCheckpointUnit(const std::string& line);

class CheckpointJournal {
 public:
  /// Start a fresh journal at `path`, atomically replacing any previous
  /// file. All I/O goes through `env` (Env::Default() when null) — the
  /// seam crash-matrix tests inject faults through.
  static Result<CheckpointJournal> Create(std::string path,
                                          uint64_t fingerprint,
                                          store::Env* env = nullptr);

  /// Open `path` for resumption: replay the store (its fingerprint must
  /// match), fill `completed` with the finished units, and keep
  /// appending. A missing file degrades to Create so `--resume` also
  /// works on the first run. A torn tail (crash mid-append) is dropped
  /// with a note in `*warning`; a fingerprint mismatch is an error, and
  /// so is a file that is not a semap.journal.v1 store (kParseError,
  /// raised before anything is written).
  static Result<CheckpointJournal> Resume(
      std::string path, uint64_t fingerprint,
      std::vector<CheckpointedUnit>* completed, std::string* warning = nullptr,
      store::Env* env = nullptr);

  /// Append one finished unit: one fsynced journal record, O(unit).
  Status Append(const CheckpointedUnit& unit);

  const std::string& path() const { return store_.path(); }

 private:
  explicit CheckpointJournal(store::MappingStore store)
      : store_(std::move(store)) {}

  store::MappingStore store_;
};

}  // namespace semap::exec

#endif  // SEMAP_EXEC_CHECKPOINT_H_

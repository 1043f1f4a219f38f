// Campaign checkpoint/resume.
//
// Long campaigns (the production target is millions of defect simulations)
// must survive interruption: a killed run restarts from its last flushed
// checkpoint instead of from zero, and -- because every per-defect record
// is a pure function of (system config, program, bus, defect) -- the
// resumed run is bitwise identical to an uninterrupted one at any thread
// count.
//
// One store serves both campaign modes.  The file is plain text, diffable,
// and crash-durable: the full state is rewritten through
// util::write_durably, so a crash at any point leaves either the previous
// or the new complete checkpoint -- never a torn one.  Stale tmp files of
// a previous crash are removed on open; cleanup is tag-aware (the tag is
// e.g. a shard index), so per-shard checkpoints sharing a directory, or
// even a path, never delete each other's in-flight tmp files.
//
// Both formats share one header and differ only in their slot codec:
//
//   <magic line>
//   key <free-form campaign identity line>
//   crc <8 hex digits over the two lines above>
//
// kVerdicts ("xtest-checkpoint v2"): off-line verdicts, one group per
// section in registration order:
//
//   section <name> <count>
//   <count verdict chars: U D T E, '.' = pending>
//   crc <8 hex digits over the section header + slot line>
//
// kOnlineOutcomes ("xtest-online-checkpoint v1"): full on-line outcomes,
// one line per completed slot in (section name, index) order:
//
//   slot <section> <index> <V> <latency> <rounds> <hb> <late> <missed> <crc>
//   (<crc>: 8 hex digits over the line up to the space before it)
//
// Every group or line carries a CRC-32 trailer, which makes the file
// *salvageable*: a load keeps the longest valid prefix and drops only a
// truncated or corrupted tail (reported via salvage()).  A file cut inside
// its header restarts cleanly.  A legacy v1 verdict file (no CRCs) still
// loads; the next flush rewrites it as v2.
//
// Sections let one file cover a multi-session campaign (one section per
// session program).  The key line guards against resuming with the wrong
// library/bus/seed: a *CRC-valid* mismatching key throws instead of
// silently mixing results (a corrupt key line is salvage, not mismatch).

#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/verdict.h"

namespace xtest::sim {

/// What a salvage load recovered and what it had to drop.
struct SalvageReport {
  /// True when the file was damaged and a prefix (possibly empty) was
  /// recovered instead of loading cleanly.
  bool salvaged = false;
  /// Sections recovered intact (the valid prefix).
  std::size_t sections_kept = 0;
  /// Completed verdict chars visible in the dropped tail: work lost to
  /// the corruption that the resumed campaign re-simulates.
  std::size_t dropped_slots = 0;
};

/// The record type a checkpoint holds, i.e. its slot codec on disk.
enum class CheckpointFormat {
  kVerdicts,        ///< off-line verdicts: "xtest-checkpoint v2"
  kOnlineOutcomes,  ///< on-line outcomes: "xtest-online-checkpoint v1"
};

class CampaignCheckpoint {
 public:
  /// Opens `path`: removes this tag's stale tmp files from a previous
  /// crash, then loads the existing checkpoint when the file exists.  A
  /// damaged file is salvaged (see salvage()); std::runtime_error is
  /// thrown only for a file that is not a `format` checkpoint at all, an
  /// unreadable file, or a CRC-valid key mismatch.  `flush_every` is the
  /// number of record() calls between automatic atomic flushes; `tag`
  /// (e.g. "s3" for shard 3) namespaces the tmp files.
  CampaignCheckpoint(std::string path, std::string key,
                     std::size_t flush_every = 32, std::string tag = "",
                     CheckpointFormat format = CheckpointFormat::kVerdicts);

  /// Result of the constructor's load: clean, fresh, or salvaged.
  const SalvageReport& salvage() const { return salvage_; }

  /// Returns the previously completed verdicts of `section` (nullopt =
  /// still pending), registering the section at `count` slots if it is
  /// new.  Throws if the stored section has a different slot count.
  std::vector<std::optional<Verdict>> restore(const std::string& section,
                                              std::size_t count);
  /// restore() for the on-line format: the full stored outcomes.
  std::vector<std::optional<OnlineOutcome>> restore_outcomes(
      const std::string& section, std::size_t count);

  /// Records one completed slot of a section registered by restore().
  /// Thread-safe; flushes the whole state every `flush_every` records.  A
  /// *periodic* flush that fails (ENOSPC, injected fault) is counted in
  /// flush_failures() and retried `flush_every` records later: in-memory
  /// records outrank one missed flush.
  void record(const std::string& section, std::size_t index, Verdict v);
  void record(const std::string& section, std::size_t index,
              const OnlineOutcome& outcome);

  /// Durable write (util::write_durably, fault sites "checkpoint.open",
  /// ".write", ".fsync", ".rename").  Throws on failure.  Thread-safe.
  void flush();

  /// Periodic flushes from record() that failed and were deferred.
  std::size_t flush_failures() const;

  /// Completed slots across all sections (for reporting).
  std::size_t completed() const;

 private:
  struct Section {
    std::string name;
    /// Verdict chars as in the kVerdicts format, '.' = pending.
    std::vector<char> slots;
    /// kOnlineOutcomes only: the full record behind each completed slot.
    std::vector<OnlineOutcome> outcomes;
  };

  void load(const std::string& text);
  void load_verdicts(const std::vector<std::string>& lines, std::size_t i,
                     bool v1);
  void load_outcomes(const std::vector<std::string>& lines, std::size_t i);
  void drop_tail(const std::vector<std::string>& lines, std::size_t from);
  void flush_locked();
  std::string render_locked() const;
  Section* find_locked(const std::string& section);
  Section& restore_locked(const std::string& section, std::size_t count);

  std::string path_;
  std::string key_;
  std::string tag_;
  CheckpointFormat format_;
  std::size_t flush_every_;
  std::size_t dirty_ = 0;
  std::size_t flush_failures_ = 0;
  SalvageReport salvage_;
  mutable std::mutex mu_;
  /// Registration-ordered sections.
  std::vector<Section> sections_;
};

}  // namespace xtest::sim

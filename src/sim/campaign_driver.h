// The one campaign driver behind run_detection and run_online_detection
// (internal to the sim library).
//
// Both modes run the paper's loop (Fig. 9): one whole-program simulation
// per library defect, compared against a gold run.  A mode supplies only
// its gold step, its per-defect simulate function (whose record type picks
// the checkpoint format) and its tally.  The driver owns the rest, once:
// shard validation, checkpoint restore, the per-worker simulators, the
// fan-out, the completion step (checkpoint record, progress hook,
// kill/crash sites), the quarantine retry, the final flush, the counters
// and the CampaignInterrupted report.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "soc/system.h"

namespace xtest::sim::detail {

template <typename Record>
struct CampaignMode {
  /// Checkpoint key when options.checkpoint_key is empty.  (The record
  /// type picks the format: Verdict -> kVerdicts, else kOnlineOutcomes.)
  std::string default_key;
  /// The defect-free reference run on `system` (a fresh simulator,
  /// destroyed afterwards).  Called once, after the checkpoint restore and
  /// before the fan-out; returns the gold run's simulated cycles.
  std::function<std::uint64_t(soc::System& system)> gold;
  /// Simulates defect i; sets `cycles` to the faulty run's cycles.  May
  /// throw: the driver quarantines the defect and retries it once.
  std::function<Record(std::size_t i, soc::System& system,
                       std::uint64_t& cycles)>
      simulate;
  /// Adds the mode's own counters onto `stats` (the driver tallies the
  /// verdicts).  `complete` is false for an interrupted run, whose records
  /// must not be tallied.
  std::function<void(const std::vector<Record>& records, bool complete,
                     util::CampaignStats& stats)>
      tally;
};

/// Runs `mode` over the `n` defects of a library under `options` and
/// returns one record per defect, indexed like the library.  Instantiated
/// for Verdict (off-line) and OnlineOutcome (on-line).
template <typename Record>
std::vector<Record> run_campaign(const soc::SystemConfig& config,
                                 std::size_t n, const CampaignOptions& options,
                                 const CampaignMode<Record>& mode);

/// The system's nominal network for `bus`.
const xtalk::RcNetwork& nominal_net(const soc::System& system,
                                    soc::BusKind bus);

}  // namespace xtest::sim::detail

// The one campaign driver behind run_detection and run_online_detection
// (internal to the sim library).
//
// Both modes run the paper's loop (Fig. 9): one whole-program simulation
// per library defect, compared against a gold run.  A mode supplies only
// its gold step, its per-defect simulate function (whose record type picks
// the checkpoint format) and its tally.  The driver owns the rest, once:
// shard validation, checkpoint restore, the per-worker simulators, the fan-out, the completion step (checkpoint
// record, progress hook, kill/crash sites), the quarantine retry, the
// final flush, the counters and the CampaignInterrupted report.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "soc/system.h"

namespace xtest::sim::detail {

/// What the driver hands a mode's gold step.
template <typename Record>
struct GoldStep {
  /// The gold simulator, destroyed after the step.
  soc::System& system;
  /// The campaign's stats, for the step's own counters.
  util::CampaignStats& stats;
  /// 1 for each slot still to simulate (owned, not restored, not yet
  /// completed).
  const std::vector<std::uint8_t>& pending;
  /// True once the campaign is cancelled (operator or kill site).
  std::function<bool()> cancelled;
  /// Completes slot i without simulating it (the off-line batch screen),
  /// exactly as a fan-out worker would.
  std::function<void(std::size_t i, const Record& record,
                     std::uint64_t cycles)>
      complete;
};

template <typename Record>
struct CampaignMode {
  /// Checkpoint key when options.checkpoint_key is empty.  (The record
  /// type picks the format: Verdict -> kVerdicts, else kOnlineOutcomes.)
  std::string default_key;
  /// The defect-free reference run.  Called after the checkpoint restore
  /// and before the fan-out; returns the gold run's simulated cycles.
  std::function<std::uint64_t(GoldStep<Record>& step)> gold;
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

/// Installs `defect` on `bus` (cleared again by System::clear_defects).
void apply_defect(soc::System& system, soc::BusKind bus,
                  const xtalk::Defect& defect);

}  // namespace xtest::sim::detail

// Test-response capture.
//
// After a self-test run the external tester unloads the program's response
// cells and compares them with the expected (gold) values; it also notices
// when the chip fails to signal completion within the test-time budget.
// A ResponseSnapshot is exactly what the tester sees.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cpu/cpu.h"
#include "sbst/program.h"
#include "sim/verdict.h"
#include "soc/system.h"

namespace xtest::sim {

/// Thrown by the deadline-guarded run_and_capture overload when one
/// defect simulation exceeds its wall-clock budget.  Derives from
/// runtime_error so the campaign quarantine path treats a wedged
/// simulation exactly like any other SimError.
struct DeadlineExceeded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ResponseSnapshot {
  /// Response bytes, parallel to TestProgram::response_cells.
  std::vector<std::uint8_t> values;
  /// Whether the program reached HLT within the cycle budget.
  bool completed = false;

  /// Not part of detection (a tester only sees responses + timeout):
  cpu::HaltReason reason = cpu::HaltReason::kRunning;
  std::uint64_t cycles = 0;

  /// Detection = any response byte differs or completion status differs.
  bool matches(const ResponseSnapshot& o) const {
    return completed == o.completed && values == o.values;
  }
};

/// Loads the program, runs it (at most `max_cycles`), and captures the
/// responses from memory.  The response unload consults fault-injection
/// site "signature.capture".
ResponseSnapshot run_and_capture(soc::System& system,
                                 const sbst::TestProgram& program,
                                 std::uint64_t max_cycles);

/// Watchdog variant: the run is sliced so the wall clock is checked every
/// few thousand simulated cycles, and a simulation still going after
/// `deadline_ms` milliseconds throws DeadlineExceeded instead of hanging
/// its worker until the cycle budget drains.  `deadline_ms` = 0 disables
/// the watchdog (identical to the plain overload).  The deadline check
/// also consults fault-injection site "campaign.deadline" so tests can
/// trip the timeout path deterministically.
ResponseSnapshot run_and_capture(soc::System& system,
                                 const sbst::TestProgram& program,
                                 std::uint64_t max_cycles,
                                 std::uint64_t deadline_ms);

/// The gold run: the plain run_and_capture, except that the run is
/// stepped and records `trace` of `bus` (soc::System::run_recording).
ResponseSnapshot record_and_capture(soc::System& system,
                                    const sbst::TestProgram& program,
                                    std::uint64_t max_cycles,
                                    soc::BusKind bus, soc::GoldTrace& trace);

/// run_and_capture (with the same watchdog) for a run that starts
/// suspended at `from` -- a state the run from the program's entry passes
/// through at `from.cpu.cycles` -- instead of at the entry.
ResponseSnapshot resume_and_capture(soc::System& system,
                                    const sbst::TestProgram& program,
                                    const soc::SliceState& from,
                                    std::uint64_t max_cycles,
                                    std::uint64_t deadline_ms);

/// The snapshot of a run proven to replay `gold` transfer for transfer:
/// gold's own.  Consults "signature.capture" like every capture, so the
/// site fires once per run whichever way it was decided.
ResponseSnapshot replay_capture(const ResponseSnapshot& gold);

/// Tester-visible verdict for one faulty run against the gold run: a run
/// that never signals completion is a timeout detection (the paper's
/// control-derailment case), a completed run with differing response bytes
/// is a plain detection, and a matching run is undetected.
inline Verdict classify(const ResponseSnapshot& gold,
                        const ResponseSnapshot& observed) {
  if (observed.matches(gold)) return Verdict::kUndetected;
  if (!observed.completed) return Verdict::kDetectedByTimeout;
  return Verdict::kDetected;
}

}  // namespace xtest::sim

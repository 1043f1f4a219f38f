// Test-response capture.
//
// After a self-test run the external tester unloads the program's response
// cells and compares them with the expected (gold) values; it also notices
// when the chip fails to signal completion within the test-time budget.
// A ResponseSnapshot is exactly what the tester sees.

#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cpu/cpu.h"
#include "sbst/program.h"
#include "sim/verdict.h"
#include "soc/system.h"

namespace xtest::sim {

/// Thrown by Watchdog::fail when one defect simulation exceeds its
/// wall-clock budget.  Derives from runtime_error so the campaign
/// quarantine path treats a wedged simulation exactly like any other
/// SimError.
struct DeadlineExceeded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The per-defect watchdog of both campaign modes: an off-line run polls
/// it inside soc::System::run, an on-line schedule between rounds.  It
/// expires `deadline_ms` wall-clock milliseconds after construction, or
/// when fault-injection site "campaign.deadline" fires, so tests can trip
/// it deterministically.  `deadline_ms` = 0 never expires and consults
/// nothing.
class Watchdog {
 public:
  explicit Watchdog(std::uint64_t deadline_ms)
      : deadline_ms_(deadline_ms), start_(std::chrono::steady_clock::now()) {}

  bool expired() const;
  /// Throws DeadlineExceeded for a simulation still running after
  /// `cycles` cycles.
  [[noreturn]] void fail(std::uint64_t cycles) const;

 private:
  std::uint64_t deadline_ms_;
  std::chrono::steady_clock::time_point start_;
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
/// site "signature.capture".  `deadline_ms` > 0 runs it under a Watchdog:
/// a simulation still going after that many milliseconds throws
/// DeadlineExceeded instead of holding its worker until the cycle budget
/// drains.  The watched run is the plain run, every skip included.
ResponseSnapshot run_and_capture(soc::System& system,
                                 const sbst::TestProgram& program,
                                 std::uint64_t max_cycles,
                                 std::uint64_t deadline_ms = 0);

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

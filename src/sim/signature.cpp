#include "sim/signature.h"

#include <functional>

#include "util/fault_injector.h"

namespace xtest::sim {

namespace {

ResponseSnapshot capture(soc::System& system,
                         const sbst::TestProgram& program,
                         const soc::RunResult& rr) {
  util::FaultInjector::global().maybe_fail("signature.capture");
  ResponseSnapshot snap;
  snap.completed =
      rr.halted && rr.reason == cpu::HaltReason::kHltInstruction;
  snap.reason = rr.reason;
  snap.cycles = rr.cycles;
  snap.values.reserve(program.response_cells.size());
  for (cpu::Addr a : program.response_cells)
    snap.values.push_back(system.memory().read(a));
  return snap;
}

/// Runs the loaded or restored program to `max_cycles` under the
/// watchdog of `deadline_ms` and captures its responses.
ResponseSnapshot run_to_cap(soc::System& system,
                            const sbst::TestProgram& program,
                            std::uint64_t max_cycles,
                            std::uint64_t deadline_ms) {
  const Watchdog watchdog(deadline_ms);
  std::function<bool()> poll;
  if (deadline_ms > 0) poll = [&watchdog] { return watchdog.expired(); };
  const soc::RunResult rr = system.run(max_cycles, poll);
  if (!rr.halted && rr.cycles < max_cycles) watchdog.fail(rr.cycles);
  return capture(system, program, rr);
}

}  // namespace

bool Watchdog::expired() const {
  if (deadline_ms_ == 0) return false;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
  return static_cast<std::uint64_t>(elapsed) >= deadline_ms_ ||
         util::FaultInjector::global().fire("campaign.deadline");
}

void Watchdog::fail(std::uint64_t cycles) const {
  throw DeadlineExceeded("defect deadline: simulation still running after " +
                         std::to_string(cycles) + " cycles (deadline " +
                         std::to_string(deadline_ms_) + " ms)");
}

ResponseSnapshot run_and_capture(soc::System& system,
                                 const sbst::TestProgram& program,
                                 std::uint64_t max_cycles,
                                 std::uint64_t deadline_ms) {
  system.load_and_reset(program.image, program.entry);
  return run_to_cap(system, program, max_cycles, deadline_ms);
}

ResponseSnapshot record_and_capture(soc::System& system,
                                    const sbst::TestProgram& program,
                                    std::uint64_t max_cycles,
                                    soc::BusKind bus, soc::GoldTrace& trace) {
  system.load_and_reset(program.image, program.entry);
  const soc::RunResult rr = system.run_recording(max_cycles, bus, trace);
  return capture(system, program, rr);
}

ResponseSnapshot resume_and_capture(soc::System& system,
                                    const sbst::TestProgram& program,
                                    const soc::SliceState& from,
                                    std::uint64_t max_cycles,
                                    std::uint64_t deadline_ms) {
  system.restore_slice(from);
  return run_to_cap(system, program, max_cycles, deadline_ms);
}

ResponseSnapshot replay_capture(const ResponseSnapshot& gold) {
  util::FaultInjector::global().maybe_fail("signature.capture");
  return gold;
}

}  // namespace xtest::sim

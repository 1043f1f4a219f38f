#include "sim/signature.h"

#include <algorithm>
#include <chrono>

#include "sbst/slice.h"
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

/// Runs `slice` to `max_cycles` total cycles, one budget-bounded slice at
/// a time, checking the wall clock between slices.  Slicing is
/// bitwise-exact (sbst/slice.h), so the result is identical to the
/// unwatched run's.  Budgets are coarse enough that the time check is
/// noise, fine enough that a wedged simulation is caught within a few
/// slices.
soc::RunResult run_watched(sbst::ProgramSlice& slice, soc::System& system,
                           std::uint64_t max_cycles,
                           std::uint64_t deadline_ms) {
  using Clock = std::chrono::steady_clock;
  constexpr std::uint64_t kSliceCycles = 4096;
  const auto start = Clock::now();
  soc::RunResult rr;
  for (;;) {
    const std::uint64_t budget =
        std::min<std::uint64_t>(kSliceCycles, max_cycles - slice.cycles());
    rr = slice.run(system, budget);
    if (rr.halted || rr.cycles >= max_cycles) return rr;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             Clock::now() - start)
                             .count();
    if (static_cast<std::uint64_t>(elapsed) >= deadline_ms ||
        util::FaultInjector::global().fire("campaign.deadline"))
      throw DeadlineExceeded(
          "defect deadline: simulation still running after " +
          std::to_string(rr.cycles) + " cycles (deadline " +
          std::to_string(deadline_ms) + " ms)");
  }
}

}  // namespace

ResponseSnapshot run_and_capture(soc::System& system,
                                 const sbst::TestProgram& program,
                                 std::uint64_t max_cycles) {
  system.load_and_reset(program.image, program.entry);
  const soc::RunResult rr = system.run(max_cycles);
  return capture(system, program, rr);
}

ResponseSnapshot run_and_capture(soc::System& system,
                                 const sbst::TestProgram& program,
                                 std::uint64_t max_cycles,
                                 std::uint64_t deadline_ms) {
  if (deadline_ms == 0) return run_and_capture(system, program, max_cycles);
  // The watchdog is a ProgramSlice consumer.
  sbst::ProgramSlice slice(program);
  return capture(system, program,
                 run_watched(slice, system, max_cycles, deadline_ms));
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
  if (deadline_ms == 0) {
    system.restore_slice(from);
    return capture(system, program, system.run(max_cycles));
  }
  sbst::ProgramSlice slice(program, from);
  return capture(system, program,
                 run_watched(slice, system, max_cycles, deadline_ms));
}

ResponseSnapshot replay_capture(const ResponseSnapshot& gold) {
  util::FaultInjector::global().maybe_fail("signature.capture");
  return gold;
}

}  // namespace xtest::sim

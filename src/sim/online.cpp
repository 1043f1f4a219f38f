#include "sim/online.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "sbst/slice.h"
#include "sim/campaign_driver.h"
#include "sim/signature.h"
#include "util/fault_injector.h"

namespace xtest::sim {

namespace {

/// What the tester sees at one slice boundary: the response cells unloaded
/// from the *suspended* slice memory, the completion status, and the
/// global-clock stamp of the boundary.
struct RoundSnap {
  std::vector<std::uint8_t> values;
  bool halted = false;
  cpu::HaltReason reason = cpu::HaltReason::kRunning;
  std::uint64_t global_cycles = 0;
};

/// Runs one interleaved round -- a functional window, then a self-test
/// slice -- and snapshots the tester's view at its boundary.
RoundSnap run_round(soc::InterleavedScheduler& sched, sbst::ProgramSlice& slice,
                    soc::System& system, const sbst::TestProgram& program,
                    std::uint64_t slice_cycles) {
  sched.run_functional_window();
  sched.begin_test_slice();
  const std::uint64_t before = slice.cycles();
  sched.end_test_slice(slice.run(system, slice_cycles).cycles - before);
  RoundSnap snap;
  snap.values.reserve(program.response_cells.size());
  for (cpu::Addr a : program.response_cells)
    snap.values.push_back(slice.memory_at(a));
  snap.halted = slice.halted();
  snap.reason = slice.reason();
  snap.global_cycles = sched.global_cycles();
  return snap;
}

/// The gold schedule may not exceed the same absolute budget as the
/// off-line gold run.
constexpr std::uint64_t kGoldBudget = 1'000'000;

/// Ends a schedule and copies its interference counters into `out`.
void finish_schedule(soc::InterleavedScheduler& sched, OnlineOutcome& out,
                     std::uint64_t& global_cycles) {
  sched.finish();
  global_cycles = sched.global_cycles();
  out.rounds = sched.rounds();
  const soc::InterferenceCounters& c = sched.interference();
  out.heartbeats = c.heartbeats;
  out.deadlines_late = c.deadlines_late;
  out.deadlines_missed = c.deadlines_missed;
}

/// Defect-free schedule: runs rounds until the self-test program halts,
/// recording every slice-boundary snapshot.  Throws when the program does
/// not complete (same contract as the off-line gold run).
std::vector<RoundSnap> run_gold_schedule(soc::System& system,
                                         const soc::OnlineConfig& online,
                                         const soc::OnlineWorkload& workload,
                                         const sbst::TestProgram& program,
                                         OnlineOutcome& out,
                                         std::uint64_t& global_cycles) {
  soc::InterleavedScheduler sched(system, online, workload);
  sbst::ProgramSlice slice(program);
  std::vector<RoundSnap> rounds;
  for (;;) {
    rounds.push_back(
        run_round(sched, slice, system, program, online.slice_cycles));
    if (slice.halted()) break;
    if (slice.cycles() >= kGoldBudget)
      throw std::runtime_error(
          "gold on-line run did not complete; bad program");
  }
  if (slice.reason() != cpu::HaltReason::kHltInstruction)
    throw std::runtime_error(
        "gold on-line run halted abnormally; bad program");
  finish_schedule(sched, out, global_cycles);
  return rounds;
}

/// One whole-schedule defect simulation: the defect is live during both
/// the functional windows and the test slices (a field defect does not
/// care who owns the bus).  Detection is the first slice boundary whose
/// snapshot diverges from the gold boundary.
OnlineOutcome simulate_one_online(soc::System& system,
                                  const soc::OnlineConfig& online,
                                  const soc::OnlineWorkload& workload,
                                  const sbst::TestProgram& program,
                                  soc::BusKind bus,
                                  const xtalk::Defect& defect,
                                  const std::vector<RoundSnap>& gold,
                                  std::uint64_t deadline_ms,
                                  std::uint64_t& global_cycles) {
  system.apply_defect(bus, defect);
  try {
    soc::InterleavedScheduler sched(system, online, workload);
    sbst::ProgramSlice slice(program);
    OnlineOutcome out;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < gold.size(); ++r) {
      const RoundSnap snap =
          run_round(sched, slice, system, program, online.slice_cycles);
      const RoundSnap& g = gold[r];
      const bool value_div = snap.values != g.values;
      const bool halt_div =
          snap.halted != g.halted ||
          (snap.halted && g.halted && snap.reason != g.reason);
      if (value_div || halt_div) {
        // A schedule still running after the gold schedule completed with
        // matching responses is the on-line tester timeout; everything
        // else pins the defect to a response or completion mismatch.
        out.verdict = !snap.halted && g.halted && !value_div
                          ? Verdict::kDetectedByTimeout
                          : Verdict::kDetected;
        out.detection_latency_cycles = snap.global_cycles;
        break;
      }
      if (snap.halted) break;  // matched gold to completion: undetected
      if (deadline_ms > 0) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (static_cast<std::uint64_t>(elapsed) >= deadline_ms ||
            util::FaultInjector::global().fire("campaign.deadline"))
          throw DeadlineExceeded(
              "defect deadline: on-line schedule still running after " +
              std::to_string(sched.global_cycles()) + " cycles (deadline " +
              std::to_string(deadline_ms) + " ms)");
      }
    }
    finish_schedule(sched, out, global_cycles);
    system.clear_defects();
    return out;
  } catch (...) {
    system.clear_mmio();
    system.clear_defects();  // keep the worker's simulator reusable
    throw;
  }
}

}  // namespace

std::string online_checkpoint_key(soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const soc::OnlineConfig& online,
                                  const xtalk::ElectricalConfig& electrical) {
  std::string key = default_checkpoint_key(bus, library);
  char buf[192];
  std::snprintf(buf, sizeof buf,
                " online slice=%llu workload=%llu deadline=%llu",
                static_cast<unsigned long long>(online.slice_cycles),
                static_cast<unsigned long long>(online.workload_cycles),
                static_cast<unsigned long long>(online.deadline_cycles));
  key += buf;
  if (electrical.backend != xtalk::ElectricalBackend::kFullSwing) {
    std::snprintf(buf, sizeof buf, " electrical=%s swing=%.17g restorer=%.17g",
                  xtalk::to_string(electrical.backend).c_str(),
                  electrical.swing_ratio, electrical.restorer_ratio);
    key += buf;
  }
  return key;
}

OnlineResult run_online_detection(const soc::SystemConfig& config,
                                  const soc::OnlineConfig& online,
                                  const sbst::TestProgram& program,
                                  soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const CampaignOptions& options) {
  if (options.shard.count > 1)
    throw std::invalid_argument(
        "on-line campaigns do not shard: the interleaved schedule is one "
        "in-field sequence");
  if (online.slice_cycles == 0 || online.workload_cycles == 0)
    throw std::invalid_argument(
        "on-line campaign: slice_cycles and workload_cycles must be > 0");
  const soc::OnlineWorkload workload = soc::make_default_workload();
  OnlineResult result;
  std::vector<RoundSnap> gold_rounds;

  detail::CampaignMode<OnlineOutcome> mode;
  mode.default_key =
      online_checkpoint_key(bus, library, online, config.electrical);
  mode.gold = [&](soc::System& system) {
    std::uint64_t cycles = 0;
    gold_rounds = run_gold_schedule(system, online, workload, program,
                                    result.gold, cycles);
    return cycles;
  };
  mode.simulate = [&](std::size_t i, soc::System& system,
                      std::uint64_t& cycles) {
    return simulate_one_online(system, online, workload, program, bus,
                               library[i], gold_rounds,
                               options.defect_deadline_ms, cycles);
  };
  // The on-line aggregates are sums over the complete outcome vector
  // (restored slots included), so an interrupted-then-resumed campaign
  // reports exactly the uninterrupted numbers.
  mode.tally = [&](const std::vector<OnlineOutcome>& outcomes, bool complete,
                   util::CampaignStats& stats) {
    if (!complete) return;
    stats.online_rounds += result.gold.rounds;
    stats.online_mmio_heartbeats += result.gold.heartbeats;
    stats.online_deadlines_late += result.gold.deadlines_late;
    stats.online_deadlines_missed += result.gold.deadlines_missed;
    for (const OnlineOutcome& o : outcomes) {
      stats.online_rounds += o.rounds;
      stats.online_mmio_heartbeats += o.heartbeats;
      stats.online_deadlines_late += o.deadlines_late;
      stats.online_deadlines_missed += o.deadlines_missed;
      if (is_detected(o.verdict)) {
        stats.online_detection_latency_cycles += o.detection_latency_cycles;
        ++stats.online_latency_samples;
      }
    }
  };
  result.outcomes =
      detail::run_campaign(config, library.size(), options, mode);
  result.verdicts.reserve(result.outcomes.size());
  for (const OnlineOutcome& o : result.outcomes)
    result.verdicts.push_back(o.verdict);
  return result;
}

OnlineResult run_online_detection_sessions(
    const soc::SystemConfig& config, const soc::OnlineConfig& online,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options) {
  OnlineResult merged;
  merged.verdicts.assign(library.size(), Verdict::kUndetected);
  merged.outcomes.assign(library.size(), OnlineOutcome{});
  bool any = false;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    if (sessions[s].program.tests.empty()) continue;
    CampaignOptions session_options = options;
    if (!options.checkpoint_path.empty())
      session_options.checkpoint_section = "session" + std::to_string(s);
    const OnlineResult one = run_online_detection(
        config, online, sessions[s].program, bus, library, session_options);
    merged.gold.rounds += one.gold.rounds;
    merged.gold.heartbeats += one.gold.heartbeats;
    merged.gold.deadlines_late += one.gold.deadlines_late;
    merged.gold.deadlines_missed += one.gold.deadlines_missed;
    for (std::size_t i = 0; i < merged.outcomes.size(); ++i) {
      OnlineOutcome& m = merged.outcomes[i];
      const OnlineOutcome& o = one.outcomes[i];
      // First detecting session wins the latency (the field notices the
      // defect on its first diverging slice boundary).
      if (!is_detected(m.verdict) && is_detected(o.verdict))
        m.detection_latency_cycles = o.detection_latency_cycles;
      m.verdict = merge_verdicts(m.verdict, o.verdict);
      m.rounds += o.rounds;
      m.heartbeats += o.heartbeats;
      m.deadlines_late += o.deadlines_late;
      m.deadlines_missed += o.deadlines_missed;
      merged.verdicts[i] = m.verdict;
    }
    any = true;
  }
  if (!any)
    throw std::runtime_error(
        "on-line campaign: no session carries any test");
  return merged;
}

}  // namespace xtest::sim

#include "sim/campaign.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "sim/campaign_driver.h"
#include "util/fault_injector.h"

namespace xtest::sim {

namespace detail {

const xtalk::RcNetwork& nominal_net(const soc::System& system,
                                    soc::BusKind bus) {
  switch (bus) {
    case soc::BusKind::kAddress: return system.nominal_address_network();
    case soc::BusKind::kData: return system.nominal_data_network();
    case soc::BusKind::kControl: return system.nominal_control_network();
  }
  return system.nominal_address_network();
}

Verdict verdict_of(Verdict v) { return v; }
Verdict verdict_of(const OnlineOutcome& o) { return o.verdict; }

template <typename Record>
std::vector<Record> run_campaign(const soc::SystemConfig& config,
                                 std::size_t n, const CampaignOptions& options,
                                 const CampaignMode<Record>& mode) {
  const auto start = std::chrono::steady_clock::now();
  const ShardSpec shard = options.shard;
  if (shard.count == 0 || (shard.count > 1 && shard.index >= shard.count))
    throw std::invalid_argument(
        "campaign shard " + std::to_string(shard.index) + "/" +
        std::to_string(shard.count) + ": index must be < count");

  // Counters are added straight onto the caller's stats (sessions and
  // sweeps accumulate); without a caller they go to a discarded copy.
  util::CampaignStats discarded;
  util::CampaignStats& stats =
      options.stats != nullptr ? *options.stats : discarded;
  // Every simulator (gold, workers, retry) is built fresh for this
  // campaign; its transition-cache counters go onto the stats when it is
  // done.
  const auto add_counters = [&stats](const soc::System& system) {
    const soc::CacheCounters c = system.transition_cache_counters();
    stats.cache_hits += c.hits;
    stats.cache_misses += c.misses;
    stats.loop_cycles_skipped += system.loop_cycles_skipped();
  };

  std::vector<Record> records(n);
  std::vector<std::uint64_t> run_cycles(n, 0);
  // Slots still to simulate: owned by this shard and not restored from a
  // previous (interrupted) run.
  std::vector<std::uint8_t> pending(n, 0);
  for (std::size_t i = 0; i < n; ++i) pending[i] = shard.owns(i);
  std::size_t restored_count = 0;

  std::unique_ptr<CampaignCheckpoint> checkpoint;
  const std::string& section = options.checkpoint_section;
  if (!options.checkpoint_path.empty()) {
    checkpoint = std::make_unique<CampaignCheckpoint>(
        options.checkpoint_path,
        options.checkpoint_key.empty() ? mode.default_key
                                       : options.checkpoint_key,
        options.checkpoint_every,
        shard.count > 1 ? "s" + std::to_string(shard.index) : "",
        std::is_same_v<Record, Verdict> ? CheckpointFormat::kVerdicts
                                        : CheckpointFormat::kOnlineOutcomes);
    const SalvageReport& sr = checkpoint->salvage();
    if (sr.salvaged) {
      stats.salvaged_sections += sr.sections_kept;
      stats.dropped_slots += sr.dropped_slots;
      stats.error_log.push_back(
          "checkpoint " + options.checkpoint_path + ": salvaged " +
          std::to_string(sr.sections_kept) + " section(s), dropped " +
          std::to_string(sr.dropped_slots) +
          " completed slot(s) from a corrupt tail");
    }
    std::vector<std::optional<Record>> slots;
    if constexpr (std::is_same_v<Record, Verdict>)
      slots = checkpoint->restore(section, n);
    else
      slots = checkpoint->restore_outcomes(section, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots[i]) continue;
      records[i] = *slots[i];
      pending[i] = 0;
      ++restored_count;
    }
  }

  // Cooperative cancellation: set by the operator (options.cancel, wired
  // to a SIGINT/SIGTERM flag) or by the chaos-soak injection sites.
  std::atomic<bool> killed{false};
  std::atomic<bool> crashed{false};
  const auto cancelled = [&] {
    return killed.load(std::memory_order_relaxed) ||
           (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed));
  };
  std::atomic<std::size_t> simulated{0};
  // Records slot i in memory and in the checkpoint, then calls the
  // progress hook (worker heartbeat, worker.exit chaos site).
  const auto settle = [&](std::size_t i, const Record& record,
                          std::uint64_t cycles) {
    records[i] = record;
    run_cycles[i] = cycles;
    pending[i] = 0;
    simulated.fetch_add(1, std::memory_order_relaxed);
    if (checkpoint) checkpoint->record(section, i, record);
    if (options.progress) options.progress();
  };
  // settle() plus the chaos sites: "campaign.kill" is a graceful kill
  // (final flush, resumable from every completed record), "campaign.crash"
  // a hard one (no final flush, like a real SIGKILL mid-campaign).
  const auto complete = [&](std::size_t i, const Record& record,
                            std::uint64_t cycles) {
    settle(i, record, cycles);
    util::FaultInjector& inj = util::FaultInjector::global();
    if (inj.fire("campaign.kill")) killed.store(true);
    if (inj.fire("campaign.crash")) {
      crashed.store(true);
      killed.store(true);
    }
  };

  std::uint64_t gold_cycles = 0;
  {
    soc::System gold_system(config);
    gold_cycles = mode.gold(gold_system);
    add_counters(gold_system);
  }

  // Each worker lazily owns its private simulator; records are written by
  // defect index, so the result is independent of the worker count and of
  // any interleaving.
  const unsigned workers = options.parallel.resolve(n);
  std::vector<std::unique_ptr<soc::System>> systems(workers);
  const std::vector<util::ItemError> errors = util::parallel_for_items(
      n, options.parallel, [&](std::size_t i, unsigned w) {
        if (!pending[i] || cancelled()) return;
        if (!systems[w]) systems[w] = std::make_unique<soc::System>(config);
        std::uint64_t cycles = 0;
        const Record record = mode.simulate(i, *systems[w], cycles);
        complete(i, record, cycles);
      });
  for (const std::unique_ptr<soc::System>& s : systems)
    if (s) add_counters(*s);

  // Quarantine: each failed defect is retried once serially on a fresh
  // simulator (a transient poisoned-worker state cannot recur there); a
  // second failure is recorded as kSimError and the campaign still
  // completes with every other record intact.  Retries record through
  // settle(): the chaos sites count fan-out completions only.
  Record failed{};
  if constexpr (std::is_same_v<Record, Verdict>)
    failed = Verdict::kSimError;
  else
    failed.verdict = Verdict::kSimError;
  std::size_t retries = 0;
  for (const util::ItemError& e : errors) {
    if (cancelled()) break;  // unrecorded items re-run on resume
    // The parallel.item injection site fires for every index of the
    // range, including slots this call never simulates (restored or
    // another shard's); they must not leak into its records.
    if (!pending[e.index]) continue;
    std::string message = e.message;
    Record record = failed;
    std::uint64_t cycles = 0;
    bool recovered = false;
    if (options.retry_errors) {
      ++retries;
      soc::System fresh(config);
      try {
        record = mode.simulate(e.index, fresh, cycles);
        recovered = true;
      } catch (const std::exception& retry_error) {
        message = retry_error.what();
      } catch (...) {
        message = "unknown exception";
      }
      add_counters(fresh);
    }
    if (!recovered) {
      cycles = 0;
      stats.error_log.push_back("defect " + std::to_string(e.index) + ": " +
                                message);
    }
    settle(e.index, record, cycles);
  }

  const bool interrupted = cancelled();
  if (checkpoint && !crashed.load()) {
    // The final flush is best-effort: the in-memory records are the
    // campaign result, a full disk must not turn them into a failure.
    try {
      checkpoint->flush();
    } catch (const std::exception& e) {
      stats.error_log.push_back(std::string("checkpoint final flush failed: ") +
                                e.what());
    }
  }

  stats.threads = workers;
  stats.defects_simulated += simulated.load();
  stats.restored_from_checkpoint += restored_count;
  stats.retries += retries;
  stats.simulated_cycles += gold_cycles;
  for (std::uint64_t c : run_cycles) stats.simulated_cycles += c;
  if (checkpoint) stats.flush_failures += checkpoint->flush_failures();
  if (!interrupted) {
    // A sharded run tallies only the slots it owns, so per-shard verdict
    // breakdowns sum (CampaignStats::merge_from) to exactly the unsharded
    // breakdown.
    std::vector<Verdict> owned;
    owned.reserve(shard.owned_of(n));
    for (std::size_t i = 0; i < n; ++i)
      if (shard.owns(i)) owned.push_back(verdict_of(records[i]));
    tally_verdicts(owned, stats);
  }
  mode.tally(records, !interrupted, stats);
  stats.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (interrupted)
    throw CampaignInterrupted(
        "campaign interrupted after " + std::to_string(simulated.load()) +
        " new verdict(s)" +
        (checkpoint ? (crashed.load()
                           ? "; simulated crash, last periodic checkpoint "
                             "flush survives"
                           : "; checkpoint flushed to " +
                                 options.checkpoint_path)
                    : "; no checkpoint configured") +
        " -- rerun the same command to resume");
  return records;
}

template std::vector<Verdict> run_campaign<Verdict>(
    const soc::SystemConfig&, std::size_t, const CampaignOptions&,
    const CampaignMode<Verdict>&);
template std::vector<OnlineOutcome> run_campaign<OnlineOutcome>(
    const soc::SystemConfig&, std::size_t, const CampaignOptions&,
    const CampaignMode<OnlineOutcome>&);

}  // namespace detail

using detail::nominal_net;

GoldRun run_gold(soc::System& system, const sbst::TestProgram& program,
                 soc::BusKind bus) {
  GoldRun gold;
  gold.responses =
      record_and_capture(system, program, 1'000'000, bus, gold.trace);
  if (!gold.responses.completed)
    throw std::runtime_error("gold run did not complete; bad program");
  return gold;
}

ResponseSnapshot simulate_slot(soc::System& system, soc::BusKind bus,
                               const xtalk::Defect& defect,
                               const sbst::TestProgram& program,
                               const GoldRun& gold, std::uint64_t budget,
                               std::uint64_t deadline_ms, SlotSkip* skip) {
  system.apply_defect(bus, defect);
  ResponseSnapshot snap;
  try {
    std::optional<std::size_t> at = system.first_divergence(gold.trace);
    // The stepped run reaches the start point only if the cap does not
    // stop it first; campaign budgets always exceed gold's cycles, a
    // smaller one starts from the entry.
    std::uint64_t start =
        at ? gold.trace.boundaries[*at].cpu.cycles : gold.responses.cycles;
    if (start > budget) {
      at = 0;
      start = 0;
    }
    snap = at ? resume_and_capture(system, program, gold.trace.state_at(*at),
                                   budget, deadline_ms)
              : replay_capture(gold.responses);
    if (skip != nullptr) *skip = {start, !at};
  } catch (...) {
    system.clear_defects();  // keep the worker's simulator reusable
    throw;
  }
  system.clear_defects();
  return snap;
}

xtalk::DefectLibrary make_defect_library(
    const soc::SystemConfig& config, soc::BusKind bus, std::size_t count,
    std::uint64_t seed, double sigma_pct,
    const util::ParallelConfig& parallel) {
  const soc::System system(config);
  xtalk::DefectConfig dc;
  dc.sigma_pct = sigma_pct;
  switch (bus) {
    case soc::BusKind::kAddress: dc.cth_fF = system.address_cth(); break;
    case soc::BusKind::kData: dc.cth_fF = system.data_cth(); break;
    case soc::BusKind::kControl: dc.cth_fF = system.control_cth(); break;
  }
  dc.count = count;
  dc.seed = seed;
  return xtalk::DefectLibrary::generate(nominal_net(system, bus), dc,
                                        parallel);
}

std::string default_checkpoint_key(soc::BusKind bus,
                                   const xtalk::DefectLibrary& library) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "bus=%s count=%zu seed=%llu sigma=%.17g cth=%.17g",
                soc::to_string(bus).c_str(), library.size(),
                static_cast<unsigned long long>(library.config().seed),
                library.config().sigma_pct, library.config().cth_fF);
  return buf;
}

std::vector<Verdict> run_detection(const soc::SystemConfig& config,
                                   const sbst::TestProgram& program,
                                   soc::BusKind bus,
                                   const xtalk::DefectLibrary& library,
                                   const CampaignOptions& options) {
  const std::size_t n = library.size();
  GoldRun gold;
  std::uint64_t budget = 0;
  // Skip counters of the slots simulated to completion (a failed attempt
  // adds nothing; its retry does).
  std::atomic<std::uint64_t> prefix_cycles{0};
  std::atomic<std::size_t> gold_equal{0};

  detail::CampaignMode<Verdict> mode;
  mode.default_key = default_checkpoint_key(bus, library);
  mode.gold = [&](soc::System& system) {
    gold = run_gold(system, program, bus);
    budget = gold.responses.cycles * options.cycle_factor + 1000;
    return gold.responses.cycles;
  };
  mode.simulate = [&](std::size_t i, soc::System& system,
                      std::uint64_t& cycles) {
    SlotSkip skip;
    const ResponseSnapshot snap =
        simulate_slot(system, bus, library[i], program, gold, budget,
                      options.defect_deadline_ms, &skip);
    cycles = snap.cycles;
    prefix_cycles.fetch_add(skip.prefix_cycles, std::memory_order_relaxed);
    if (skip.gold_equal) gold_equal.fetch_add(1, std::memory_order_relaxed);
    return classify(gold.responses, snap);
  };
  mode.tally = [&](const std::vector<Verdict>&, bool,
                   util::CampaignStats& stats) {
    stats.prefix_cycles_skipped += prefix_cycles.load();
    stats.gold_equal_slots += gold_equal.load();
  };
  return detail::run_campaign(config, n, options, mode);
}

std::vector<Verdict> run_detection(const soc::SystemConfig& config,
                                   const sbst::TestProgram& program,
                                   soc::BusKind bus,
                                   const xtalk::DefectLibrary& library,
                                   std::uint64_t cycle_factor,
                                   const util::ParallelConfig& parallel,
                                   util::CampaignStats* stats) {
  CampaignOptions options;
  options.cycle_factor = cycle_factor;
  options.parallel = parallel;
  options.stats = stats;
  return run_detection(config, program, bus, library, options);
}

std::vector<Verdict> run_detection_sessions(
    const soc::SystemConfig& config,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, const CampaignOptions& options) {
  std::vector<Verdict> merged(library.size(), Verdict::kUndetected);
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    if (sessions[s].program.tests.empty()) continue;
    CampaignOptions session_options = options;
    if (!options.checkpoint_path.empty())
      session_options.checkpoint_section = "session" + std::to_string(s);
    const std::vector<Verdict> det = run_detection(
        config, sessions[s].program, bus, library, session_options);
    for (std::size_t i = 0; i < merged.size(); ++i)
      merged[i] = merge_verdicts(merged[i], det[i]);
  }
  return merged;
}

std::vector<Verdict> run_detection_sessions(
    const soc::SystemConfig& config,
    const std::vector<sbst::GenerationResult>& sessions, soc::BusKind bus,
    const xtalk::DefectLibrary& library, std::uint64_t cycle_factor,
    const util::ParallelConfig& parallel, util::CampaignStats* stats) {
  CampaignOptions options;
  options.cycle_factor = cycle_factor;
  options.parallel = parallel;
  options.stats = stats;
  return run_detection_sessions(config, sessions, bus, library, options);
}

PerLineCoverage per_line_coverage(const soc::SystemConfig& config,
                                  soc::BusKind bus,
                                  const xtalk::DefectLibrary& library,
                                  const sbst::GeneratorConfig& base_config,
                                  std::uint64_t cycle_factor,
                                  const util::ParallelConfig& parallel,
                                  util::CampaignStats* stats) {
  const soc::System probe(config);
  const unsigned width = nominal_net(probe, bus).width();
  PerLineCoverage out;
  out.library_size = library.size();
  out.individual.resize(width, 0.0);
  out.cumulative.resize(width, 0.0);
  out.tests_placed.resize(width, 0);

  std::vector<Verdict> cum(library.size(), Verdict::kUndetected);
  for (unsigned line = 0; line < width; ++line) {
    // The MA tests for interconnect `line`: all MAF types, both directions
    // for the data bus.
    std::vector<xtalk::MafFault> faults;
    const bool bidir =
        bus == soc::BusKind::kData && base_config.data_both_directions;
    for (const xtalk::MafFault& f :
         xtalk::enumerate_mafs(width, bidir))
      if (f.victim == line) faults.push_back(f);

    sbst::GeneratorConfig cfg = base_config;
    cfg.include_address_bus = bus == soc::BusKind::kAddress;
    cfg.include_data_bus = bus == soc::BusKind::kData;
    if (bus == soc::BusKind::kAddress)
      cfg.address_faults = faults;
    else
      cfg.data_faults = faults;

    // Multi-session realisation of this line's MA tests, so conflicts
    // between the line's own four schemes do not hide any of them.
    const std::vector<sbst::GenerationResult> minis =
        sbst::TestProgramGenerator::generate_sessions(cfg);
    for (const auto& s : minis) out.tests_placed[line] += s.program.tests.size();
    const std::vector<Verdict> det = run_detection_sessions(
        config, minis, bus, library, cycle_factor, parallel, stats);
    out.individual[line] = coverage(det);
    for (std::size_t i = 0; i < cum.size(); ++i)
      cum[i] = merge_verdicts(cum[i], det[i]);
    out.cumulative[line] = coverage(cum);
  }

  // The complete program set over all lines (multi-session, Section 5).
  sbst::GeneratorConfig full = base_config;
  full.include_address_bus = bus == soc::BusKind::kAddress;
  full.include_data_bus = bus == soc::BusKind::kData;
  const std::vector<sbst::GenerationResult> all =
      sbst::TestProgramGenerator::generate_sessions(full);
  out.overall = coverage(run_detection_sessions(config, all, bus, library,
                                                cycle_factor, parallel,
                                                stats));
  return out;
}

}  // namespace xtest::sim

#include "sim/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "sim/campaign_driver.h"
#include "sim/gold_cache.h"
#include "util/fault_injector.h"
#include "xtalk/batch.h"

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

void apply_defect(soc::System& system, soc::BusKind bus,
                  const xtalk::Defect& defect) {
  // Moved, not copied, into the system: per-defect set-up is on every
  // simulation's path (DESIGN.md D12).
  xtalk::RcNetwork net = defect.apply(nominal_net(system, bus));
  switch (bus) {
    case soc::BusKind::kAddress:
      system.set_address_network(std::move(net));
      break;
    case soc::BusKind::kData:
      system.set_data_network(std::move(net));
      break;
    case soc::BusKind::kControl:
      system.set_control_network(std::move(net));
      break;
  }
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
  };

  std::vector<Record> records(n);
  std::vector<std::uint64_t> run_cycles(n, 0);
  // Slots still to simulate: owned by this shard, not restored from a
  // previous (interrupted) run, and not completed by the gold step.
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
    GoldStep<Record> step{gold_system, stats, pending, cancelled, complete};
    gold_cycles = mode.gold(step);
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
  // settle(): the chaos sites count screen and fan-out completions only.
  Record failed{};
  if constexpr (std::is_same_v<Record, Verdict>)
    failed = Verdict::kSimError;
  else
    failed.verdict = Verdict::kSimError;
  std::size_t retries = 0;
  for (const util::ItemError& e : errors) {
    if (cancelled()) break;  // unrecorded items re-run on resume
    // The parallel.item injection site fires for every index of the
    // range, including slots this call never simulates (restored,
    // screened, another shard's); they must not leak into its records.
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
    // breakdowns sum to exactly the unsharded breakdown under
    // merge_shard_results.
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

namespace {

using detail::nominal_net;

const xtalk::CrosstalkErrorModel& bus_model(const soc::System& system,
                                            soc::BusKind bus) {
  switch (bus) {
    case soc::BusKind::kAddress: return system.address_model();
    case soc::BusKind::kData: return system.data_model();
    case soc::BusKind::kControl: return system.control_model();
  }
  return system.address_model();
}

/// The unique (held, driven) transitions one gold run drives on one bus,
/// with the word the gold receiver sampled -- the input of the
/// transition-major batched screen.  `held` reconstructs the tristate
/// bus's kept word: zeros after load_and_reset, then the previously
/// *driven* word after every transfer (soc::TristateBus semantics).
struct GoldTransitions {
  std::vector<std::uint64_t> held;
  std::vector<std::uint64_t> driven;
  std::vector<std::uint64_t> expected;
};

std::shared_ptr<const GoldTransitions> collect_transitions(
    const soc::BusTrace& trace, soc::BusKind bus) {
  auto out = std::make_shared<GoldTransitions>();
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t held = 0;
  for (const soc::BusEvent& e : trace.events()) {
    if (e.bus != bus) continue;
    const std::uint64_t driven = e.driven.bits();
    // Exact dedup key: every system bus is at most 12 wires wide
    // (ScenarioSpec::validate pins the widths to the CPU architecture),
    // so (held, driven) packs collision-free.
    const std::uint64_t key = (held << 32) | driven;
    if (seen.insert(key).second) {
      out->held.push_back(held);
      out->driven.push_back(driven);
      out->expected.push_back(e.received.bits());
    }
    held = driven;
  }
  return out;
}

// Process-wide memo of gold transition streams, the batched-path sibling
// of GoldRunCache: keyed by the gold-run content hash (plus the bus), so
// entries can never go stale -- the stream is a pure function of the key.
// Bounded like the snapshot memo; a full table is simply dropped.
std::uint64_t transitions_key(std::uint64_t gold_key, soc::BusKind bus) {
  return gold_key ^ ((static_cast<std::uint64_t>(bus) + 1) *
                     0x9E3779B97F4A7C15ull);
}

struct TransitionsMemo {
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::shared_ptr<const GoldTransitions>>
      map;
};

TransitionsMemo& transitions_memo() {
  static TransitionsMemo* m = new TransitionsMemo;
  return *m;
}

std::shared_ptr<const GoldTransitions> transitions_find(std::uint64_t key) {
  TransitionsMemo& m = transitions_memo();
  const std::lock_guard<std::mutex> lock(m.mu);
  const auto it = m.map.find(key);
  return it == m.map.end() ? nullptr : it->second;
}

void transitions_store(std::uint64_t key,
                       std::shared_ptr<const GoldTransitions> value) {
  TransitionsMemo& m = transitions_memo();
  const std::lock_guard<std::mutex> lock(m.mu);
  if (m.map.size() >= 256) m.map.clear();
  m.map[key] = std::move(value);
}

/// One whole-program defect simulation: apply, run, classify, restore.
Verdict simulate_one(soc::System& system, soc::BusKind bus,
                     const xtalk::Defect& defect,
                     const sbst::TestProgram& program,
                     const ResponseSnapshot& gold, std::uint64_t budget,
                     std::uint64_t deadline_ms, std::uint64_t& cycles) {
  detail::apply_defect(system, bus, defect);
  ResponseSnapshot snap;
  try {
    snap = run_and_capture(system, program, budget, deadline_ms);
  } catch (...) {
    system.clear_defects();  // keep the worker's simulator reusable
    throw;
  }
  cycles = snap.cycles;
  system.clear_defects();
  return classify(gold, snap);
}

/// Transition-major batched pre-screen (the defect-batched fast path).
/// It runs *before* the worker fan-out: the windows are screened on
/// `parallel`'s threads, each worker with its own DefectBatch, evaluator
/// and counters, and the screened defects are then completed serially in
/// ascending index order.  The screened set is a pure function of the
/// inputs and the completions (checkpoint records, progress hook, kill
/// sites) come in the same order at every thread count; the screen is
/// recomputed identically on any resume (restored slots are simply not
/// gathered), which makes every checkpoint boundary batch-safe.  A lane
/// whose received word matches the gold word on every unique gold
/// transition provably executes the gold run verbatim (only the bus under
/// test is perturbed; while execution matches gold the faulty run sees
/// exactly gold's (held, driven) pairs), so it is completed kUndetected
/// after gold.cycles without being simulated -- exactly the verdict and
/// cycle count the full simulation would produce.  Diverging lanes may
/// still be masked, so they fall through to the per-defect simulation.
void batch_screen(detail::GoldStep<Verdict>& step, soc::BusKind bus,
                  const xtalk::DefectLibrary& library,
                  const GoldTransitions& transitions,
                  std::uint64_t gold_cycles, std::size_t batch_size,
                  const util::ParallelConfig& parallel) {
  const auto start = std::chrono::steady_clock::now();
  const soc::System& probe = step.system;
  const xtalk::RcNetwork& nominal = nominal_net(probe, bus);
  const xtalk::ErrorModelConfig model_config = bus_model(probe, bus).config();
  // Width-mismatched defects (e.g. poisoned CSV reloads) are not gathered;
  // they hit apply() in the worker and take the ordinary quarantine path.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < library.size(); ++i)
    if (step.pending[i] && library[i].width() == nominal.width())
      candidates.push_back(i);
  const std::size_t windows = (candidates.size() + batch_size - 1) / batch_size;
  struct Counters {
    std::uint64_t transitions = 0;
    std::size_t lanes = 0, capacity = 0;
  };
  std::vector<Counters> counters(parallel.resolve(windows));
  // Lanes of windows a cancelled screen skipped stay dead (never completed).
  std::vector<std::uint8_t> live(candidates.size(), 0);
  util::parallel_for_chunks(
      windows, parallel, [&](std::size_t first, std::size_t last, unsigned w) {
        Counters& c = counters[w];
        for (std::size_t k = first; k < last && !step.cancelled(); ++k) {
          const std::size_t begin = k * batch_size;
          const std::size_t end =
              std::min(begin + batch_size, candidates.size());
          const xtalk::DefectBatch batch(
              nominal, library,
              std::vector<std::size_t>(candidates.begin() + begin,
                                       candidates.begin() + end));
          xtalk::BatchEvaluator evaluator(batch, model_config);
          std::uint8_t* lanes = live.data() + begin;
          std::size_t alive = end - begin;
          std::fill(lanes, lanes + alive, 1);
          for (std::size_t t = 0; t < transitions.held.size() && alive > 0;
               ++t) {
            ++c.transitions;
            alive = evaluator.screen(transitions.held[t],
                                     transitions.driven[t],
                                     xtalk::BusDirection::kCpuToCore,
                                     transitions.expected[t], lanes);
          }
          c.lanes += end - begin;
          c.capacity += batch_size;
        }
      });
  for (const Counters& c : counters) {
    step.stats.batched_transitions += c.transitions;
    step.stats.batch_lanes += c.lanes;
    step.stats.batch_capacity += c.capacity;
  }
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (!live[k]) continue;
    if (step.cancelled()) break;
    ++step.stats.batch_screened;
    step.complete(candidates[k], Verdict::kUndetected, gold_cycles);
  }
  step.stats.screen_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

}  // namespace

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
  const bool batching = options.batched && options.batch_size >= 1 && n > 0;
  // Gold-run reuse: the snapshot is a pure function of (config, program,
  // budget), so identical gold programs across sessions, per-line sweeps,
  // and checkpoint resumes are answered from the process-wide memo.  An
  // armed fault injector bypasses the memo (see gold_cache.h).
  const bool gold_cacheable =
      options.reuse_gold && !util::FaultInjector::global().armed();
  ResponseSnapshot gold;
  std::uint64_t gold_key = 0;
  std::uint64_t budget = 0;

  detail::CampaignMode<Verdict> mode;
  mode.default_key = default_checkpoint_key(bus, library);
  mode.gold = [&](detail::GoldStep<Verdict>& step) {
    std::shared_ptr<const GoldTransitions> transitions;
    bool gold_reused = false;
    if (gold_cacheable) {
      gold_key = gold_run_key(config, program, 1'000'000);
      gold_reused = GoldRunCache::global().find(gold_key, gold);
      if (gold_reused && batching) {
        transitions = transitions_find(transitions_key(gold_key, bus));
        // A snapshot hit without its transition stream still costs a
        // traced gold re-run; count it as a miss so the accounting stays
        // honest.
        if (transitions == nullptr) gold_reused = false;
      }
    }
    if (!gold_reused) {
      soc::System& system = step.system;
      soc::BusTrace trace;
      if (batching) system.set_trace(&trace);
      gold = run_and_capture(system, program, 1'000'000);
      system.set_trace(nullptr);
      if (batching) transitions = collect_transitions(trace, bus);
      if (gold_cacheable) {
        step.stats.gold_evictions +=
            GoldRunCache::global().store(gold_key, gold);
        if (batching)
          transitions_store(transitions_key(gold_key, bus), transitions);
      }
    }
    step.stats.gold_reuses += gold_reused ? 1 : 0;
    if (!gold.completed)
      throw std::runtime_error("gold run did not complete; bad program");
    budget = gold.cycles * options.cycle_factor + 1000;
    if (batching)
      batch_screen(step, bus, library, *transitions, gold.cycles,
                   options.batch_size, options.parallel);
    return gold.cycles;
  };
  mode.simulate = [&](std::size_t i, soc::System& system,
                      std::uint64_t& cycles) {
    return simulate_one(system, bus, library[i], program, gold, budget,
                        options.defect_deadline_ms, cycles);
  };
  mode.tally = [](const std::vector<Verdict>&, bool, util::CampaignStats&) {};
  return detail::run_campaign(config, n, options, mode);
}

std::vector<Verdict> merge_shard_results(const std::vector<ShardResult>& shards,
                                         util::CampaignStats* stats) {
  if (shards.empty())
    throw std::invalid_argument("merge_shard_results: no shards");
  const std::size_t count = shards.front().shard.count;
  const std::size_t n = shards.front().verdicts.size();
  if (shards.size() != count)
    throw std::invalid_argument(
        "merge_shard_results: got " + std::to_string(shards.size()) +
        " shard result(s) for a " + std::to_string(count) + "-way split");
  std::vector<std::uint8_t> seen(count, 0);
  for (const ShardResult& s : shards) {
    if (s.shard.count != count)
      throw std::invalid_argument(
          "merge_shard_results: shard " + std::to_string(s.shard.index) +
          " was run as 1 of " + std::to_string(s.shard.count) +
          ", not 1 of " + std::to_string(count));
    if (s.shard.index >= count || seen[s.shard.index])
      throw std::invalid_argument(
          "merge_shard_results: shard index " +
          std::to_string(s.shard.index) +
          (s.shard.index >= count ? " out of range" : " appears twice"));
    if (s.verdicts.size() != n)
      throw std::invalid_argument(
          "merge_shard_results: shard " + std::to_string(s.shard.index) +
          " carries " + std::to_string(s.verdicts.size()) +
          " verdict(s), expected " + std::to_string(n));
    seen[s.shard.index] = 1;
  }
  std::vector<Verdict> merged(n, Verdict::kUndetected);
  for (const ShardResult& s : shards) {
    for (std::size_t i = s.shard.index; i < n; i += count)
      merged[i] = s.verdicts[i];
    if (stats != nullptr) stats->merge_from(s.stats);
  }
  return merged;
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

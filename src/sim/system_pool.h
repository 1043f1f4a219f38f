// Process-wide pool of reusable simulators.
//
// An accelerated-tier System accumulates state that is expensive to
// rebuild and pure with respect to its configuration: the warm nominal
// transition memos, and the pooled per-defect evaluator/memo pairs
// (soc::System::PooledDefect).  Campaign passes, per-line sweeps, session
// sweeps and checkpoint resumes construct simulators with the *same*
// SystemConfig over and over; leasing them from this pool instead lets a
// later pass revive every memo the earlier pass filled -- the simulators
// are exact, so reuse changes throughput, never verdicts.
//
// Reference-tier simulators are deliberately not pooled: the reference
// interpreter is the semantic baseline and keeps the seed's
// construct-per-campaign behaviour.  An armed fault injector also
// bypasses the pool, so chaos runs see the exact per-run state their
// fault scripts were written against.
//
// Counters: a leased System's transition-cache and tier counters carry
// history from earlier leases.  Callers that aggregate per-campaign stats
// must therefore absorb *deltas*; Lease::add_counters does exactly that.

#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "soc/system.h"
#include "util/parallel.h"

namespace xtest::sim {

class SystemPool {
 public:
  /// Exclusive RAII checkout of a simulator.  Destruction returns the
  /// simulator to the pool (after clearing defects and the micro-program
  /// pin) -- or simply destroys it when pooling is bypassed.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    soc::System& operator*() { return *system_; }
    soc::System* operator->() { return system_.get(); }
    const soc::System& operator*() const { return *system_; }
    const soc::System* operator->() const { return system_.get(); }
    explicit operator bool() const { return system_ != nullptr; }

    /// Adds this lease's own transition-cache and tier counter traffic
    /// (the counters minus their values at acquisition) onto `stats`.
    void add_counters(util::CampaignStats& stats) const;

   private:
    friend class SystemPool;
    std::unique_ptr<soc::System> system_;
    SystemPool* home_ = nullptr;  // null: bypassed, destroy on release
    soc::SystemConfig config_;
    soc::CacheCounters cache0_;
    soc::TierCounters tiers0_;
  };

  /// Leases an idle simulator built with `config`, constructing one when
  /// none is parked.  Bypasses pooling (fresh construct, destroy on
  /// release) for the reference tier, under an armed fault injector, and
  /// when `fresh` asks for a simulator no earlier run has touched (the
  /// campaign quarantine retry).
  Lease acquire(const soc::SystemConfig& config, bool fresh = false);

  /// Destroys every parked simulator (tests; memory pressure).
  void clear();

  /// Parked simulators across all configurations (tests).
  std::size_t idle_count() const;

  static SystemPool& global();

 private:
  struct Entry {
    soc::SystemConfig config;
    std::vector<std::unique_ptr<soc::System>> idle;
  };

  void release(std::unique_ptr<soc::System> system,
               const soc::SystemConfig& config);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace xtest::sim

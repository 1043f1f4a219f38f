#include "sim/system_pool.h"

#include "util/fault_injector.h"

namespace xtest::sim {

namespace {
/// Idle simulators kept per configuration: enough for a worker fan-out
/// plus the gold/lead simulator; beyond that, released ones are dropped.
constexpr std::size_t kMaxIdlePerConfig = 8;
}  // namespace

SystemPool::Lease::~Lease() {
  if (system_ == nullptr || home_ == nullptr) return;
  home_->release(std::move(system_), config_);
}

void SystemPool::Lease::add_counters(util::CampaignStats& stats) const {
  const soc::CacheCounters c = system_->transition_cache_counters();
  const soc::TierCounters t = system_->tier_counters();
  stats.cache_hits += c.hits - cache0_.hits;
  stats.cache_misses += c.misses - cache0_.misses;
  stats.decoded_programs += t.decoded_programs - tiers0_.decoded_programs;
  stats.decode_cache_hits += t.decode_cache_hits - tiers0_.decode_cache_hits;
  stats.jit_blocks += t.jit_blocks - tiers0_.jit_blocks;
  stats.jit_bailouts += t.jit_bailouts - tiers0_.jit_bailouts;
}

SystemPool::Lease SystemPool::acquire(const soc::SystemConfig& config,
                                     bool fresh) {
  Lease lease;
  lease.config_ = config;
  const bool pooled = !fresh && config.exec_tier != cpu::ExecTier::kReference &&
                      !util::FaultInjector::global().armed();
  if (pooled) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry& e : entries_) {
      if (!(e.config == config) || e.idle.empty()) continue;
      lease.system_ = std::move(e.idle.back());
      e.idle.pop_back();
      break;
    }
  }
  if (lease.system_ == nullptr)
    lease.system_ = std::make_unique<soc::System>(config);
  lease.home_ = pooled ? this : nullptr;
  lease.cache0_ = lease.system_->transition_cache_counters();
  lease.tiers0_ = lease.system_->tier_counters();
  return lease;
}

void SystemPool::release(std::unique_ptr<soc::System> system,
                         const soc::SystemConfig& config) {
  // Return the simulator defect-free, unpinned, untraced and with no MMIO
  // device mapped; its memos (warm, pooled defects, decode memo) are what
  // the next lease is for.
  system->clear_defects();
  system->clear_mmio();
  system->set_micro_program(nullptr);
  system->set_trace(nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (!(e.config == config)) continue;
    if (e.idle.size() < kMaxIdlePerConfig)
      e.idle.push_back(std::move(system));
    return;
  }
  entries_.push_back(Entry{config, {}});
  entries_.back().idle.push_back(std::move(system));
}

void SystemPool::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

std::size_t SystemPool::idle_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.idle.size();
  return n;
}

SystemPool& SystemPool::global() {
  static SystemPool* pool = new SystemPool;
  return *pool;
}

}  // namespace xtest::sim

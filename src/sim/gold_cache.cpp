#include "sim/gold_cache.h"

#include <cstring>
#include <mutex>
#include <unordered_map>

namespace xtest::sim {

namespace {

constexpr std::size_t kDefaultCapacity = 256;

struct Fnv1a {
  std::uint64_t h = 0xCBF29CE484222325ull;

  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

void hash_geometry(Fnv1a& h, const xtalk::BusGeometry& g) {
  h.u64(g.width);
  h.f64(g.wire_length_um);
  h.f64(g.coupling_fF_per_um);
  h.f64(g.ground_fF_per_um);
  h.f64(g.distance_decay_exponent);
  h.f64(g.driver_resistance_ohm);
}

}  // namespace

std::uint64_t gold_run_key(const soc::SystemConfig& config,
                           const sbst::TestProgram& program,
                           std::uint64_t max_cycles) {
  Fnv1a h;
  hash_geometry(h, config.address_geometry);
  hash_geometry(h, config.data_geometry);
  hash_geometry(h, config.control_geometry);
  h.f64(config.cth_ratio);
  h.f64(config.clock_period_scale);
  // The electrical backend recalibrates every receiver threshold, so a
  // snapshot from one backend must never answer for another.
  h.u64(static_cast<std::uint64_t>(config.electrical.backend));
  h.f64(config.electrical.swing_ratio);
  h.f64(config.electrical.restorer_ratio);
  // Program identity: every defined byte (address + value) plus the entry
  // point and the cells the tester unloads.
  for (std::size_t a = 0; a < cpu::kMemWords; ++a) {
    const auto addr = static_cast<cpu::Addr>(a);
    if (!program.image.defined(addr)) continue;
    h.u64(a);
    h.bytes(&program.image.raw()[a], 1);
  }
  h.u64(program.entry);
  h.u64(program.response_cells.size());
  for (cpu::Addr cell : program.response_cells) h.u64(cell);
  h.u64(max_cycles);
  return h.h;
}

struct GoldRunCache::Impl {
  struct Entry {
    ResponseSnapshot snapshot;
    std::uint64_t last_use = 0;
  };

  std::mutex mutex;
  std::unordered_map<std::uint64_t, Entry> map;
  std::uint64_t clock = 0;  // recency ticks; bumped on find-hit and store
  std::size_t capacity = kDefaultCapacity;
  std::uint64_t evictions = 0;

  /// Drops least-recently-used entries until size fits `capacity`.
  /// Linear scan per eviction: the cap is small (hundreds) and eviction
  /// is rare next to the thousands of hits an entry serves.
  std::size_t evict_to_capacity() {
    std::size_t evicted = 0;
    while (map.size() > capacity) {
      auto lru = map.begin();
      for (auto it = map.begin(); it != map.end(); ++it)
        if (it->second.last_use < lru->second.last_use) lru = it;
      map.erase(lru);
      ++evicted;
    }
    evictions += evicted;
    return evicted;
  }
};

GoldRunCache::Impl& GoldRunCache::impl() {
  static Impl instance;
  return instance;
}

GoldRunCache& GoldRunCache::global() {
  static GoldRunCache cache;
  return cache;
}

bool GoldRunCache::find(std::uint64_t key, ResponseSnapshot& out) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  const auto it = im.map.find(key);
  if (it == im.map.end()) return false;
  it->second.last_use = ++im.clock;
  out = it->second.snapshot;
  return true;
}

std::size_t GoldRunCache::store(std::uint64_t key,
                                const ResponseSnapshot& snapshot) {
  if (!snapshot.completed) return 0;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  Impl::Entry& e = im.map[key];
  e.snapshot = snapshot;
  e.last_use = ++im.clock;
  return im.evict_to_capacity();
}

void GoldRunCache::set_capacity(std::size_t entries) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  im.capacity = entries > 0 ? entries : 1;
  im.evict_to_capacity();
}

std::size_t GoldRunCache::capacity() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  return im.capacity;
}

std::uint64_t GoldRunCache::evictions() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  return im.evictions;
}

void GoldRunCache::clear() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  im.map.clear();
  im.evictions = 0;
}

std::size_t GoldRunCache::size() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  return im.map.size();
}

}  // namespace xtest::sim

#include "util/parallel.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <thread>

#include "util/fault_injector.h"

namespace xtest::util {

namespace {

unsigned env_threads() {
  const char* raw = std::getenv("XTEST_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0') return 0;
  return static_cast<unsigned>(v);
}

}  // namespace

unsigned ParallelConfig::resolve(std::size_t items) const {
  if (items == 0) return 1;  // nothing to fan out, stay on the caller
  unsigned t = threads;
  if (t == 0) t = env_threads();
  if (t == 0) t = std::thread::hardware_concurrency();
  if (t == 0) t = 1;
  if (t > items) t = static_cast<unsigned>(items);
  return t;
}

std::vector<std::pair<std::size_t, std::size_t>> partition_range(
    std::size_t count, unsigned chunks) {
  if (chunks == 0) chunks = 1;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(chunks);
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  std::size_t begin = 0;
  for (unsigned w = 0; w < chunks; ++w) {
    const std::size_t len = base + (w < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

void parallel_for_chunks(
    std::size_t count, const ParallelConfig& config,
    const std::function<void(std::size_t, std::size_t, unsigned)>& body) {
  const unsigned workers = config.resolve(count);
  if (workers == 1) {
    body(0, count, 0);
    return;
  }
  const auto chunks = partition_range(count, workers);
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      try {
        body(chunks[w].first, chunks[w].second, w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

std::vector<ItemError> parallel_for_items(
    std::size_t count, const ParallelConfig& config,
    const std::function<void(std::size_t, unsigned)>& body) {
  std::vector<std::vector<ItemError>> per_worker(config.resolve(count));
  parallel_for_chunks(
      count, config, [&](std::size_t begin, std::size_t end, unsigned w) {
        for (std::size_t i = begin; i < end; ++i) {
          try {
            FaultInjector::global().maybe_fail("parallel.item");
            body(i, w);
          } catch (const std::exception& e) {
            per_worker[w].push_back({i, e.what()});
          } catch (...) {
            per_worker[w].push_back({i, "unknown exception"});
          }
        }
      });
  std::vector<ItemError> errors;
  for (std::vector<ItemError>& v : per_worker)
    errors.insert(errors.end(), std::make_move_iterator(v.begin()),
                  std::make_move_iterator(v.end()));
  return errors;
}

const char* build_type() {
#ifdef XTEST_BUILD_TYPE
  return XTEST_BUILD_TYPE;
#else
  return "unknown";
#endif
}

std::string CampaignStats::json(const std::string& label) const {
  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "{\"campaign\":\"%s\",\"threads\":%u,"
      "\"hardware_concurrency\":%u,\"build_type\":\"%s\",\"defects\":%zu,"
      "\"simulated_cycles\":%llu,\"wall_seconds\":%.6f,"
      "\"library_seconds\":%.6f,"
      "\"defects_per_second\":%.1f,\"detected\":%zu,"
      "\"detected_by_timeout\":%zu,\"undetected\":%zu,\"sim_errors\":%zu,"
      "\"retries\":%zu,\"restored_from_checkpoint\":%zu,"
      "\"salvaged_sections\":%zu,\"dropped_slots\":%zu,"
      "\"flush_failures\":%zu,\"cache_hits\":%llu,\"cache_misses\":%llu,"
      "\"cache_hit_rate\":%.4f,\"prefix_cycles_skipped\":%llu,"
      "\"loop_cycles_skipped\":%llu,\"gold_equal_slots\":%zu,"
      "\"gold_reuses\":%zu,"
      "\"run_reuses\":%zu,"
      "\"decode_cache_hits\":%llu,\"jit_bailouts\":%llu,"
      "\"online_rounds\":%llu,\"online_mmio_heartbeats\":%llu,"
      "\"online_deadlines_late\":%llu,\"online_deadlines_missed\":%llu,"
      "\"online_detection_latency_cycles\":%llu,"
      "\"online_latency_samples\":%zu}",
      label.c_str(), threads, std::thread::hardware_concurrency(),
      build_type(), defects_simulated,
      static_cast<unsigned long long>(simulated_cycles), wall_seconds,
      library_seconds, defects_per_second(), detected,
      detected_by_timeout, undetected,
      sim_errors, retries, restored_from_checkpoint, salvaged_sections,
      dropped_slots, flush_failures,
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), cache_hit_rate(),
      static_cast<unsigned long long>(prefix_cycles_skipped),
      static_cast<unsigned long long>(loop_cycles_skipped), gold_equal_slots,
      gold_reuses, run_reuses,
      static_cast<unsigned long long>(decode_cache_hits),
      static_cast<unsigned long long>(jit_bailouts),
      static_cast<unsigned long long>(online_rounds),
      static_cast<unsigned long long>(online_mmio_heartbeats),
      static_cast<unsigned long long>(online_deadlines_late),
      static_cast<unsigned long long>(online_deadlines_missed),
      static_cast<unsigned long long>(online_detection_latency_cycles),
      online_latency_samples);
  return buf;
}

void CampaignStats::merge_from(const CampaignStats& other) {
  defects_simulated += other.defects_simulated;
  simulated_cycles += other.simulated_cycles;
  wall_seconds += other.wall_seconds;
  library_seconds += other.library_seconds;
  threads = std::max(threads, other.threads);
  detected += other.detected;
  detected_by_timeout += other.detected_by_timeout;
  undetected += other.undetected;
  sim_errors += other.sim_errors;
  retries += other.retries;
  restored_from_checkpoint += other.restored_from_checkpoint;
  salvaged_sections += other.salvaged_sections;
  dropped_slots += other.dropped_slots;
  flush_failures += other.flush_failures;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  prefix_cycles_skipped += other.prefix_cycles_skipped;
  loop_cycles_skipped += other.loop_cycles_skipped;
  gold_equal_slots += other.gold_equal_slots;
  gold_reuses += other.gold_reuses;
  run_reuses += other.run_reuses;
  decode_cache_hits += other.decode_cache_hits;
  jit_bailouts += other.jit_bailouts;
  online_rounds += other.online_rounds;
  online_mmio_heartbeats += other.online_mmio_heartbeats;
  online_deadlines_late += other.online_deadlines_late;
  online_deadlines_missed += other.online_deadlines_missed;
  online_detection_latency_cycles += other.online_detection_latency_cycles;
  online_latency_samples += other.online_latency_samples;
  error_log.insert(error_log.end(), other.error_log.begin(),
                   other.error_log.end());
}

namespace {

/// Extracts `"key":<number>` from a flat JSON object; false if absent.
/// A key that is present but undecodable -- no digits after the colon, a
/// non-finite value, or a second occurrence disagreeing with the first --
/// is damage, not absence, and throws the typed error.
bool json_number(const std::string& obj, const char* key, double& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = obj.find(needle);
  if (pos == std::string::npos) return false;
  const char* start = obj.c_str() + pos + needle.size();
  char* end = nullptr;
  out = std::strtod(start, &end);
  if (end == start)
    throw StatsJsonError(std::string("stats json: unparsable value for \"") +
                         key + "\"");
  if (!std::isfinite(out))
    throw StatsJsonError(std::string("stats json: non-finite value for \"") +
                         key + "\"");
  const std::size_t dup = obj.find(needle, pos + needle.size());
  if (dup != std::string::npos) {
    const char* dstart = obj.c_str() + dup + needle.size();
    char* dend = nullptr;
    const double dv = std::strtod(dstart, &dend);
    if (dend == dstart || dv != out)
      throw StatsJsonError(std::string("stats json: duplicate key \"") + key +
                           "\" with conflicting values");
  }
  return true;
}

template <typename T>
bool json_counter(const std::string& obj, const char* key, T& field) {
  double v = 0.0;
  if (!json_number(obj, key, v)) return false;
  field = static_cast<T>(v);
  return true;
}

}  // namespace

bool parse_stats_json(const std::string& line, CampaignStats& out) {
  const std::size_t open = line.find('{');
  const std::size_t close = line.rfind('}');
  if (open == std::string::npos) return false;
  if (close == std::string::npos || close < open)
    throw StatsJsonError("stats json: truncated object (no closing '}')");
  const std::string obj = line.substr(open, close - open + 1);
  bool any = false;
  any |= json_counter(obj, "defects", out.defects_simulated);
  any |= json_counter(obj, "simulated_cycles", out.simulated_cycles);
  any |= json_counter(obj, "wall_seconds", out.wall_seconds);
  any |= json_counter(obj, "library_seconds", out.library_seconds);
  any |= json_counter(obj, "threads", out.threads);
  any |= json_counter(obj, "detected", out.detected);
  any |= json_counter(obj, "detected_by_timeout", out.detected_by_timeout);
  any |= json_counter(obj, "undetected", out.undetected);
  any |= json_counter(obj, "sim_errors", out.sim_errors);
  any |= json_counter(obj, "retries", out.retries);
  any |= json_counter(obj, "restored_from_checkpoint",
                      out.restored_from_checkpoint);
  any |= json_counter(obj, "salvaged_sections", out.salvaged_sections);
  any |= json_counter(obj, "dropped_slots", out.dropped_slots);
  any |= json_counter(obj, "flush_failures", out.flush_failures);
  any |= json_counter(obj, "cache_hits", out.cache_hits);
  any |= json_counter(obj, "cache_misses", out.cache_misses);
  any |= json_counter(obj, "prefix_cycles_skipped", out.prefix_cycles_skipped);
  any |= json_counter(obj, "loop_cycles_skipped", out.loop_cycles_skipped);
  any |= json_counter(obj, "gold_equal_slots", out.gold_equal_slots);
  any |= json_counter(obj, "gold_reuses", out.gold_reuses);
  any |= json_counter(obj, "run_reuses", out.run_reuses);
  any |= json_counter(obj, "decode_cache_hits", out.decode_cache_hits);
  any |= json_counter(obj, "jit_bailouts", out.jit_bailouts);
  any |= json_counter(obj, "online_rounds", out.online_rounds);
  any |= json_counter(obj, "online_mmio_heartbeats",
                      out.online_mmio_heartbeats);
  any |= json_counter(obj, "online_deadlines_late", out.online_deadlines_late);
  any |= json_counter(obj, "online_deadlines_missed",
                      out.online_deadlines_missed);
  any |= json_counter(obj, "online_detection_latency_cycles",
                      out.online_detection_latency_cycles);
  any |= json_counter(obj, "online_latency_samples",
                      out.online_latency_samples);
  return any;
}

}  // namespace xtest::util

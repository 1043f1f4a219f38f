// Perf baseline for the hot-path overhaul: cached bus-transition
// evaluation and the precomputed fast receive path.
//
// Emits BENCH_PERF.json (in the working directory) with:
//   * repeated-transfer throughput, transition cache on vs off, and the
//     resulting speedup (the acceptance gate is >= 2x on this microbench);
//   * single-call receive latency, fast BusEvaluator vs the reference
//     CrosstalkErrorModel;
//   * the off-line and on-line campaign points.  Thread scaling is
//     measured on whole cold `xtest campaign` processes instead (the CI
//     perf job), not on in-process points of a few milliseconds.
//
// All timed paths are bitwise-equivalent to the reference evaluation
// (tests/test_fastpath.cpp), so these numbers measure pure speed.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sbst/generator.h"
#include "sim/campaign.h"
#include "sim/online.h"
#include "soc/bus.h"
#include "soc/system.h"
#include "util/parallel.h"
#include "xtalk/defect.h"
#include "xtalk/error_model.h"
#include "xtalk/fast_model.h"

using namespace xtest;

namespace {

struct Timed {
  double seconds = 0.0;
  std::uint64_t calls = 0;

  double per_call_ns() const {
    return calls > 0 ? seconds * 1e9 / static_cast<double>(calls) : 0.0;
  }
  double per_sec() const {
    return seconds > 0.0 ? static_cast<double>(calls) / seconds : 0.0;
  }
};

/// Repeats `body` (which performs `batch_calls` calls) until `min_seconds`
/// of wall clock have elapsed.
template <typename Body>
Timed measure(double min_seconds, std::uint64_t batch_calls, Body&& body) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  Timed t;
  do {
    body();
    t.calls += batch_calls;
    t.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  } while (t.seconds < min_seconds);
  return t;
}

/// Fetch-loop style traffic: a short cyclic address sequence, exactly the
/// shape that dominates a self-test program (the same transitions repeat
/// thousands of times per run).
std::vector<util::BusWord> fetch_sequence(unsigned width) {
  std::vector<util::BusWord> seq;
  for (unsigned i = 0; i < 16; ++i)
    seq.emplace_back(width, (0x100u + i * 37u) & util::BusWord::mask(width));
  return seq;
}

double transfers_per_sec(const xtalk::BusEvaluator& eval, bool use_cache) {
  soc::TristateBus bus(soc::BusKind::kAddress, eval.width());
  xtalk::TransitionCache cache(eval.width());
  xtalk::TransitionCache* cache_ptr = use_cache ? &cache : nullptr;
  const std::vector<util::BusWord> seq = fetch_sequence(eval.width());
  std::uint64_t sink = 0;
  const Timed t = measure(0.25, seq.size() * 64, [&] {
    for (int rep = 0; rep < 64; ++rep)
      for (const util::BusWord& w : seq)
        sink ^= bus.transfer(w, &eval, cache_ptr).bits();
  });
  benchmark::DoNotOptimize(sink);
  return t.per_sec();
}

double receive_ns_fast(const xtalk::BusEvaluator& eval,
                       const std::vector<xtalk::VectorPair>& pairs) {
  std::uint64_t sink = 0;
  const Timed t = measure(0.25, pairs.size(), [&] {
    for (const xtalk::VectorPair& p : pairs)
      sink ^= eval.receive(p.v1.bits(), p.v2.bits());
  });
  benchmark::DoNotOptimize(sink);
  return t.per_call_ns();
}

double receive_ns_reference(const xtalk::RcNetwork& net,
                            const xtalk::CrosstalkErrorModel& model,
                            const std::vector<xtalk::VectorPair>& pairs) {
  std::uint64_t sink = 0;
  const Timed t = measure(0.25, pairs.size(), [&] {
    for (const xtalk::VectorPair& p : pairs)
      sink ^= model.receive(net, p).bits();
  });
  benchmark::DoNotOptimize(sink);
  return t.per_call_ns();
}

/// One serial multi-session campaign on the slow-tester electricals (clock
/// period scaled 3x), 96 defects through every session.
double campaign_point() {
  spec::ScenarioSpec s = spec::builtin_scenario("slow-tester");
  s.defect_count = 96;
  const auto sessions = s.make_sessions();
  const auto lib = s.make_library();
  util::CampaignStats stats;
  sim::CampaignOptions opts = s.campaign_options(&stats);
  opts.parallel.threads = 1;
  sim::run_detection_sessions(s.system, sessions, s.bus, lib, opts);
  return stats.defects_per_second();
}

struct OnlinePoint {
  double defects_per_second = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t latency_cycles = 0;
  std::size_t latency_samples = 0;
  std::uint64_t deadlines_late = 0;
  std::uint64_t deadlines_missed = 0;
};

/// One serial on-line campaign on the online-baseline scenario (32
/// defects): the wall cost of interleaving self-test slices with the
/// functional workload, plus the detection-latency aggregate the perf
/// gate tracks (the off-line flow has no such number).
OnlinePoint online_point() {
  spec::ScenarioSpec s = spec::builtin_scenario("online-baseline");
  s.defect_count = 32;
  const auto sessions = s.make_sessions();
  const auto lib = s.make_library();
  util::CampaignStats stats;
  sim::CampaignOptions opts = s.campaign_options(&stats);
  opts.parallel.threads = 1;
  sim::run_online_detection_sessions(s.system, s.online, sessions, s.bus,
                                     lib, opts);
  return {stats.defects_per_second(),  stats.online_rounds,
          stats.online_detection_latency_cycles, stats.online_latency_samples,
          stats.online_deadlines_late, stats.online_deadlines_missed};
}

void print_perf_baseline() {
  const xtalk::BusGeometry g = bench::active_spec().system.address_geometry;
  const xtalk::RcNetwork nominal(g);
  const xtalk::ErrorModelConfig thresholds = xtalk::ErrorModelConfig::calibrated(
      nominal, xtalk::recommended_cth(nominal));
  // The microbenches run on a *defective* bus: the calibrated nominal bus
  // is provably excursion-free, so its evaluator answers with an identity
  // early-exit that touches neither the cache nor the analytic path --
  // only a perturbed network still exercises what these points measure.
  xtalk::DefectConfig dc;
  dc.cth_fF = xtalk::recommended_cth(nominal);
  dc.count = 1;
  const xtalk::RcNetwork net =
      xtalk::DefectLibrary::generate(nominal, dc)[0].apply(nominal);
  const xtalk::BusEvaluator eval(net, thresholds);
  const xtalk::CrosstalkErrorModel reference(thresholds);

  std::mt19937_64 rng(42);
  std::uniform_int_distribution<std::uint64_t> word(0,
                                                    util::BusWord::mask(12));
  std::vector<xtalk::VectorPair> pairs;
  for (int i = 0; i < 1024; ++i)
    pairs.push_back({util::BusWord(12, word(rng)),
                     util::BusWord(12, word(rng))});

  const double xfer_on = transfers_per_sec(eval, true);
  const double xfer_off = transfers_per_sec(eval, false);
  const double xfer_speedup = xfer_off > 0.0 ? xfer_on / xfer_off : 0.0;
  const double ns_fast = receive_ns_fast(eval, pairs);
  const double ns_ref = receive_ns_reference(net, reference, pairs);
  const double recv_speedup = ns_fast > 0.0 ? ns_ref / ns_fast : 0.0;

  std::printf("\nrepeated transfers (12-wire defective bus, 16-word fetch "
              "loop):\n"
              "  cache on : %12.0f transfers/sec\n"
              "  cache off: %12.0f transfers/sec\n"
              "  speedup  : %.2fx\n",
              xfer_on, xfer_off, xfer_speedup);
  std::printf("\nsingle receive (defective bus, random 12-wire "
              "transitions):\n"
              "  fast evaluator : %8.1f ns/call\n"
              "  reference model: %8.1f ns/call\n"
              "  speedup        : %.2fx\n",
              ns_fast, ns_ref, recv_speedup);

  const double campaign = campaign_point();
  std::printf("\ncampaign (96 slow-tester defects, all sessions, serial):\n"
              "  %8.0f defects/sec\n",
              campaign);

  const OnlinePoint online = online_point();
  std::printf("\non-line campaign (32 defects, online-baseline schedule, "
              "serial):\n"
              "  %8.0f defects/sec, %llu rounds\n"
              "  detection latency: %llu cycles over %zu sample(s)\n"
              "  deadlines: %llu late, %llu missed\n",
              online.defects_per_second,
              static_cast<unsigned long long>(online.rounds),
              static_cast<unsigned long long>(online.latency_cycles),
              online.latency_samples,
              static_cast<unsigned long long>(online.deadlines_late),
              static_cast<unsigned long long>(online.deadlines_missed));

  char json[2048];
  std::snprintf(
      json, sizeof json,
      "{\"bench\":\"perf_hotpath\","
      "\"transfers_per_sec_cache_on\":%.0f,"
      "\"transfers_per_sec_cache_off\":%.0f,"
      "\"repeated_transfer_speedup\":%.3f,"
      "\"receive_ns_fast\":%.2f,"
      "\"receive_ns_reference\":%.2f,"
      "\"receive_speedup\":%.3f,"
      "\"campaign_defects_per_sec\":%.1f,"
      "\"online_defects_per_sec\":%.1f,"
      "\"online_rounds\":%llu,"
      "\"online_detection_latency_cycles\":%llu,"
      "\"online_latency_samples\":%zu,"
      "\"online_deadlines_late\":%llu,"
      "\"online_deadlines_missed\":%llu,"
      "\"hardware_concurrency\":%u,"
      "\"cpus_detected\":%u,"
      "\"build_type\":\"%s\"}",
      xfer_on, xfer_off, xfer_speedup, ns_fast, ns_ref, recv_speedup,
      campaign, online.defects_per_second,
      static_cast<unsigned long long>(online.rounds),
      static_cast<unsigned long long>(online.latency_cycles),
      online.latency_samples,
      static_cast<unsigned long long>(online.deadlines_late),
      static_cast<unsigned long long>(online.deadlines_missed),
      std::thread::hardware_concurrency(),
      std::thread::hardware_concurrency(), util::build_type());
  std::printf("\n%s\n", json);

  std::FILE* out = std::fopen("BENCH_PERF.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "%s\n", json);
    std::fclose(out);
    std::printf("wrote BENCH_PERF.json\n");
  } else {
    std::fprintf(stderr, "warning: cannot write BENCH_PERF.json\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  return bench::scenario_main(
      argc, argv, "Perf: hot-path baseline",
      "simulator throughput (no paper figure; perf trajectory)",
      spec::builtin_scenario("paper-baseline"), print_perf_baseline,
      /*run_benchmarks=*/false);
}

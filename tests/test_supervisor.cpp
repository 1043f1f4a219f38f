// Crash-isolated sharded campaigns: shard assignment, per-shard verdicts
// against the serial run, stats raw-counter merging, tag-aware checkpoint
// tmp cleanup, the supervised-job builder, and the Supervisor's
// worker-process lifecycle (spawn retry, heartbeat-timeout kills,
// crash/respawn/resume, quarantine after exhausted retries).
//
// The Supervisor.* tests spawn the real xtest binary (XTEST_BINARY_PATH,
// injected by CMake) as worker processes against the job the CLI and the
// daemon build (spec::ScenarioSpec::supervisor_job).

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "sim/supervisor.h"
#include "sim/verdict.h"
#include "spec/scenario.h"
#include "util/fault_injector.h"
#include "util/parallel.h"

namespace xtest::sim {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  f << text;
  ASSERT_TRUE(f.good()) << path;
}

// A small single-session data-bus campaign: big enough that every shard
// of up to 4 owns work, small enough that a worker process finishes in
// well under a second.
spec::ScenarioSpec worker_spec(std::size_t defects) {
  spec::ScenarioSpec s;
  s.name = "supervisor-test";
  s.bus = soc::BusKind::kData;
  s.defect_count = defects;
  s.multi_session = false;
  s.threads = 1;
  return s;
}

std::vector<Verdict> serial_verdicts(const spec::ScenarioSpec& s,
                                     util::CampaignStats* stats = nullptr) {
  util::CampaignStats local;
  CampaignOptions opts = s.campaign_options(stats != nullptr ? stats : &local);
  return run_detection_sessions(s.system, s.make_sessions(), s.bus,
                                s.make_library(), opts);
}

// A unique shard-checkpoint base for `tag`, with any shard files a
// previous failed run left there removed.  Also points supervised jobs at
// the built xtest binary: this test executable cannot be a worker.
std::string fresh_base(const std::string& tag) {
  ::setenv("XTEST_WORKER_BINARY", XTEST_BINARY_PATH, 1);
  const std::string base = temp_path("xtest_sup_" + tag + ".ckpt");
  Supervisor::remove_shard_checkpoints(base, 16);
  return base;
}

// The supervised job for `spec` from the builder the CLI and the daemon
// use.  The job file goes with the job object; the shard checkpoints go
// when the fixture does.
struct SupervisorFixture {
  std::string base;
  spec::SupervisedJob supervised;

  SupervisorFixture(const spec::ScenarioSpec& s, const std::string& tag,
                    const std::string& fault_spec = "")
      : base(fresh_base(tag)),
        supervised(s.supervisor_job(s.make_library(), s.make_sessions(), base,
                                    fault_spec)) {}
  ~SupervisorFixture() { Supervisor::remove_shard_checkpoints(base, 16); }

  const SupervisorJob& job() const { return supervised.job(); }
};

// Arms the process-wide injector (supervisor.* sites fire in the parent,
// i.e. in this test process) and guarantees disarm on scope exit.
struct GlobalFaults {
  explicit GlobalFaults(const std::string& spec) {
    util::FaultInjector::global().configure(spec);
  }
  ~GlobalFaults() { util::FaultInjector::global().disarm(); }
};

// ---------------------------------------------------------------------------
// Shard assignment.

TEST(ShardSpec, OwnershipPartitionsTheLibrary) {
  constexpr std::size_t kDefects = 13;
  for (std::size_t count = 1; count <= 5; ++count) {
    std::size_t owned_total = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const ShardSpec shard{k, count};
      std::size_t owned = 0;
      for (std::size_t i = 0; i < kDefects; ++i) {
        // Exactly one shard owns each index.
        std::size_t owners = 0;
        for (std::size_t j = 0; j < count; ++j)
          owners += ShardSpec{j, count}.owns(i) ? 1 : 0;
        EXPECT_EQ(owners, 1u) << "index " << i << " count " << count;
        owned += shard.owns(i) ? 1 : 0;
      }
      EXPECT_EQ(owned, shard.owned_of(kDefects))
          << "shard " << k << "/" << count;
      owned_total += owned;
    }
    EXPECT_EQ(owned_total, kDefects);
  }
}

TEST(ShardSpec, TrivialShardOwnsEverything) {
  const ShardSpec all;  // {0, 1}
  EXPECT_TRUE(all.owns(0));
  EXPECT_TRUE(all.owns(999));
  EXPECT_EQ(all.owned_of(42), 42u);
}

// ---------------------------------------------------------------------------
// In-process shard/merge equivalence.

TEST(ShardMerge, ShardedRunsMergeToTheSerialResultBitwise) {
  const spec::ScenarioSpec s = worker_spec(12);
  util::CampaignStats serial_stats;
  const std::vector<Verdict> serial = serial_verdicts(s, &serial_stats);

  for (const std::size_t count : {2u, 4u}) {
    util::CampaignStats merged_stats;
    for (std::size_t k = 0; k < count; ++k) {
      util::CampaignStats shard_stats;
      CampaignOptions opts = s.campaign_options(&shard_stats);
      opts.shard = {k, count};
      const std::vector<Verdict> v = run_detection_sessions(
          s.system, s.make_sessions(), s.bus, s.make_library(), opts);
      ASSERT_EQ(v.size(), serial.size());
      // Every slot the shard owns carries the serial verdict.
      for (std::size_t i = 0; i < v.size(); ++i)
        if (opts.shard.owns(i)) {
          EXPECT_EQ(v[i], serial[i])
              << "slot " << i << " of shard " << k << "/" << count;
        }
      merged_stats.merge_from(shard_stats);
    }
    // The verdict breakdown is a raw-counter sum over shards and must
    // reproduce the serial breakdown exactly.
    EXPECT_EQ(merged_stats.detected, serial_stats.detected);
    EXPECT_EQ(merged_stats.detected_by_timeout,
              serial_stats.detected_by_timeout);
    EXPECT_EQ(merged_stats.undetected, serial_stats.undetected);
    EXPECT_EQ(merged_stats.sim_errors, serial_stats.sim_errors);
  }
}

// ---------------------------------------------------------------------------
// Stats merging: raw counters sum; ratios recompute from the sums.

TEST(CampaignStatsMerge, RatiosRecomputeFromMergedRawCounters) {
  util::CampaignStats a;
  a.cache_hits = 90;
  a.cache_misses = 10;  // rate 0.9 over 100 transfers
  a.wall_seconds = 1.5;
  a.threads = 2;
  a.detected = 7;
  a.prefix_cycles_skipped = 1000;
  a.loop_cycles_skipped = 40;
  a.gold_equal_slots = 3;
  a.error_log = {"defect 3: boom"};

  util::CampaignStats b;
  b.cache_hits = 1;
  b.cache_misses = 9;  // rate 0.1 over only 10 transfers
  b.wall_seconds = 0.5;
  b.threads = 4;
  b.detected = 2;
  b.prefix_cycles_skipped = 24;
  b.loop_cycles_skipped = 2;
  b.gold_equal_slots = 1;
  b.error_log = {"defect 8: bang"};

  a.merge_from(b);

  // (90 + 1) / (100 + 10), NOT the mean of 0.9 and 0.1: the big shard
  // dominates because the merge sums raw counters.
  EXPECT_DOUBLE_EQ(a.cache_hit_rate(), 91.0 / 110.0);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 2.0);
  EXPECT_EQ(a.threads, 4u);
  EXPECT_EQ(a.detected, 9u);
  EXPECT_EQ(a.prefix_cycles_skipped, 1024u);
  EXPECT_EQ(a.loop_cycles_skipped, 42u);
  EXPECT_EQ(a.gold_equal_slots, 4u);
  ASSERT_EQ(a.error_log.size(), 2u);
  EXPECT_EQ(a.error_log[1], "defect 8: bang");
}

TEST(CampaignStatsMerge, PhaseTimesAreRawSumsAndRoundTripThroughJson) {
  util::CampaignStats a;
  a.wall_seconds = 1.0;
  a.library_seconds = 0.25;
  util::CampaignStats b;
  b.library_seconds = 0.5;
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.library_seconds, 0.75);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 1.0);  // library time is not wall time

  util::CampaignStats got;
  ASSERT_TRUE(util::parse_stats_json(a.json("phases"), got));
  EXPECT_NEAR(got.library_seconds, a.library_seconds, 1e-6);
  EXPECT_NEAR(got.wall_seconds, a.wall_seconds, 1e-6);
}

TEST(CampaignStatsMerge, JsonLineRoundTripsThroughParse) {
  util::CampaignStats st;
  st.defects_simulated = 120;
  st.simulated_cycles = 987654;
  st.wall_seconds = 1.25;
  st.threads = 3;
  st.detected = 70;
  st.detected_by_timeout = 5;
  st.undetected = 40;
  st.sim_errors = 5;
  st.retries = 2;
  st.restored_from_checkpoint = 11;
  st.salvaged_sections = 1;
  st.dropped_slots = 4;
  st.flush_failures = 1;
  st.cache_hits = 1000;
  st.cache_misses = 50;
  st.gold_reuses = 6;

  util::CampaignStats got;
  ASSERT_TRUE(util::parse_stats_json(st.json("roundtrip"), got));
  EXPECT_EQ(got.defects_simulated, st.defects_simulated);
  EXPECT_EQ(got.simulated_cycles, st.simulated_cycles);
  EXPECT_NEAR(got.wall_seconds, st.wall_seconds, 1e-9);
  EXPECT_EQ(got.threads, st.threads);
  EXPECT_EQ(got.detected, st.detected);
  EXPECT_EQ(got.detected_by_timeout, st.detected_by_timeout);
  EXPECT_EQ(got.undetected, st.undetected);
  EXPECT_EQ(got.sim_errors, st.sim_errors);
  EXPECT_EQ(got.retries, st.retries);
  EXPECT_EQ(got.restored_from_checkpoint, st.restored_from_checkpoint);
  EXPECT_EQ(got.salvaged_sections, st.salvaged_sections);
  EXPECT_EQ(got.dropped_slots, st.dropped_slots);
  EXPECT_EQ(got.flush_failures, st.flush_failures);
  EXPECT_EQ(got.cache_hits, st.cache_hits);
  EXPECT_EQ(got.cache_misses, st.cache_misses);
  EXPECT_EQ(got.gold_reuses, st.gold_reuses);
  // The retired screen's fields are gone from the line.
  EXPECT_EQ(st.json("roundtrip").find("batch"), std::string::npos);
  EXPECT_EQ(st.json("roundtrip").find("screen"), std::string::npos);
}

TEST(CampaignStatsMerge, ParseRejectsLinesWithoutAStatsObject) {
  util::CampaignStats out;
  EXPECT_FALSE(util::parse_stats_json("no json here", out));
  EXPECT_FALSE(util::parse_stats_json("{\"unrelated\": 1}", out));
}

// ---------------------------------------------------------------------------
// Tag-aware checkpoint tmp cleanup (concurrent per-shard writers).

TEST(CheckpointTags, StaleTmpCleanupOnlyTouchesItsOwnTag) {
  const std::string path = temp_path("tagged.ckpt");
  std::error_code ec;
  fs::remove(path, ec);
  const std::string untagged_tmp = path + ".tmp.12345";
  const std::string s0_tmp = path + ".tmp.s0.23456";
  const std::string s1_tmp = path + ".tmp.s1.34567";
  write_file(untagged_tmp, "torn write\n");
  write_file(s0_tmp, "torn write\n");
  write_file(s1_tmp, "torn write\n");

  // Shard 0's checkpoint cleans only shard 0's stale tmps: the untagged
  // one and shard 1's survive.
  { CampaignCheckpoint ck(path, "key", 32, "s0"); }
  EXPECT_FALSE(fs::exists(s0_tmp));
  EXPECT_TRUE(fs::exists(untagged_tmp));
  EXPECT_TRUE(fs::exists(s1_tmp));

  // An untagged checkpoint cleans only untagged tmps.
  { CampaignCheckpoint ck(path, "key"); }
  EXPECT_FALSE(fs::exists(untagged_tmp));
  EXPECT_TRUE(fs::exists(s1_tmp));

  { CampaignCheckpoint ck(path, "key", 32, "s1"); }
  EXPECT_FALSE(fs::exists(s1_tmp));
  fs::remove(path, ec);
}

TEST(CheckpointTags, CrashBetweenFsyncAndRenameResumesFromLastRename) {
  const std::string path = temp_path("fsync_crash.ckpt");
  std::error_code ec;
  fs::remove(path, ec);

  // A worker flushes two verdicts durably (tmp + fsync + rename)...
  {
    CampaignCheckpoint ck(path, "key", 1, "s0");
    ck.restore("session0", 4);
    ck.record("session0", 0, Verdict::kDetected);
    ck.record("session0", 2, Verdict::kUndetected);
  }
  // ...then dies after fsync of the NEXT flush but before its rename: the
  // in-flight tmp is left behind with state the rename never published.
  const std::string orphan = path + ".tmp.s0.99999";
  write_file(orphan, "newer state that never got renamed\n");

  // The respawned worker removes the orphan and resumes from the last
  // *renamed* checkpoint -- the two published verdicts, nothing more.
  CampaignCheckpoint ck(path, "key", 1, "s0");
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_EQ(ck.salvage().dropped_slots, 0u);
  const auto slots = ck.restore("session0", 4);
  ASSERT_EQ(slots.size(), 4u);
  EXPECT_EQ(slots[0], Verdict::kDetected);
  EXPECT_FALSE(slots[1].has_value());
  EXPECT_EQ(slots[2], Verdict::kUndetected);
  EXPECT_FALSE(slots[3].has_value());
  fs::remove(path, ec);
}

// ---------------------------------------------------------------------------
// The supervised-job builder (no workers are spawned here).

TEST(SupervisedJob, BuilderWritesTheWorkerScenarioAndRemovesItOnDestruction) {
  spec::ScenarioSpec s = worker_spec(4);
  s.workers = 3;
  const std::string base = fresh_base("jobfile");
  const std::string path = base + ".job.scn";
  {
    const spec::SupervisedJob sj =
        s.supervisor_job(s.make_library(), s.make_sessions(), base, "");
    const SupervisorJob& job = sj.job();
    EXPECT_EQ(job.scenario_path, path);
    EXPECT_EQ(job.binary, XTEST_BINARY_PATH);
    EXPECT_EQ(job.defect_count, 4u);
    EXPECT_EQ(job.sections, std::vector<std::string>{"session0"});
    EXPECT_EQ(job.checkpoint_key,
              default_checkpoint_key(s.bus, s.make_library()));
    EXPECT_EQ(job.checkpoint_base, base);
    // The worker scenario is this spec with supervision stripped.
    spec::ScenarioSpec expected = s;
    expected.workers = 0;
    EXPECT_EQ(spec::load_scenario(path), expected);
  }
  EXPECT_FALSE(fs::exists(path));

  // The file also goes when the supervised run throws: zero workers are
  // rejected before anything is spawned.
  const auto run_rejected = [&] {
    const spec::SupervisedJob sj =
        s.supervisor_job(s.make_library(), s.make_sessions(), base, "");
    ASSERT_TRUE(fs::exists(path));
    SupervisorOptions opt;
    opt.workers = 0;
    Supervisor(sj.job(), opt).run();
  };
  EXPECT_THROW(run_rejected(), std::runtime_error);
  EXPECT_FALSE(fs::exists(path));
}

// ---------------------------------------------------------------------------
// Supervisor process tests (spawn the real xtest binary as workers).

TEST(Supervisor, SupervisedRunMatchesSerialBitwise) {
  const spec::ScenarioSpec s = worker_spec(10);
  util::CampaignStats serial_stats;
  const std::vector<Verdict> serial = serial_verdicts(s, &serial_stats);

  SupervisorFixture fx(s, "serial_match");
  SupervisorOptions opt;
  opt.workers = 3;
  SupervisorResult r = Supervisor(fx.job(), opt).run();

  EXPECT_EQ(r.verdicts, serial);
  EXPECT_FALSE(r.degraded());
  EXPECT_EQ(r.respawns, 0u);
  EXPECT_GT(r.heartbeats, 0u);
  ASSERT_EQ(r.shards.size(), 3u);
  for (const ShardOutcome& sh : r.shards) {
    EXPECT_EQ(sh.spawns, 1u) << "shard " << sh.shard;
    EXPECT_FALSE(sh.quarantined) << "shard " << sh.shard;
  }
  // The merged breakdown reproduces the single-process campaign's.
  EXPECT_EQ(r.stats.detected, serial_stats.detected);
  EXPECT_EQ(r.stats.detected_by_timeout, serial_stats.detected_by_timeout);
  EXPECT_EQ(r.stats.undetected, serial_stats.undetected);
  EXPECT_EQ(r.stats.sim_errors, serial_stats.sim_errors);
}

TEST(Supervisor, MoreWorkersThanDefectsLeavesEmptyShardsHealthy) {
  const spec::ScenarioSpec s = worker_spec(3);
  const std::vector<Verdict> serial = serial_verdicts(s);

  SupervisorFixture fx(s, "empty_shards");
  SupervisorOptions opt;
  opt.workers = 5;  // shards 3 and 4 own zero defects
  SupervisorResult r = Supervisor(fx.job(), opt).run();

  EXPECT_EQ(r.verdicts, serial);
  EXPECT_FALSE(r.degraded());
  EXPECT_EQ(r.shards.size(), 5u);
}

TEST(Supervisor, CrashingWorkersResumeFromCheckpointProgress) {
  spec::ScenarioSpec s = worker_spec(8);
  // Flush after every verdict so each doomed attempt still publishes
  // durable progress before worker.exit kills it on its 3rd verdict --
  // progress refills the retry budget, so the shards converge no matter
  // how many attempts it takes.
  s.checkpoint_every = 1;
  const std::vector<Verdict> serial = serial_verdicts(s);

  SupervisorFixture fx(s, "crash_resume", "worker.exit@3");
  SupervisorOptions opt;
  opt.workers = 2;
  opt.worker_backoff_ms = 1;
  SupervisorResult r = Supervisor(fx.job(), opt).run();

  EXPECT_EQ(r.verdicts, serial);
  EXPECT_FALSE(r.degraded());
  EXPECT_GE(r.respawns, 1u);
  EXPECT_GT(r.stats.restored_from_checkpoint, 0u);
}

TEST(Supervisor, RetriesExhaustedQuarantinesTheShard) {
  spec::ScenarioSpec s = worker_spec(6);
  // No periodic flush: every attempt dies on its first verdict with
  // nothing durable, so there is never progress to refill the budget.
  s.checkpoint_every = 100000;

  SupervisorFixture fx(s, "quarantine", "worker.exit@1");
  SupervisorOptions opt;
  opt.workers = 2;
  opt.worker_retries = 1;
  opt.worker_backoff_ms = 1;
  SupervisorResult r = Supervisor(fx.job(), opt).run();

  // Graceful degradation: the run completes (no throw), both shards are
  // quarantined, every unrecovered defect reads kSimError, and each shard
  // leaves one error_log entry behind.
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.quarantined().size(), 2u);
  ASSERT_EQ(r.verdicts.size(), 6u);
  for (const Verdict v : r.verdicts) EXPECT_EQ(v, Verdict::kSimError);
  EXPECT_EQ(r.stats.sim_errors, 6u);
  EXPECT_EQ(r.stats.error_log.size(), 2u);
  // worker_retries = 1 means exactly 2 spawns per shard: the first
  // attempt plus one progress-less retry.
  for (const ShardOutcome& sh : r.shards) EXPECT_EQ(sh.spawns, 2u);
}

TEST(Supervisor, SpawnFailureIsRetriedWithBackoff) {
  const spec::ScenarioSpec s = worker_spec(6);
  const std::vector<Verdict> serial = serial_verdicts(s);

  SupervisorFixture fx(s, "spawn_retry");
  // supervisor.spawn fires in THIS process: the first spawn attempt fails
  // synthetically and must be retried after backoff.
  GlobalFaults faults("supervisor.spawn@1");
  SupervisorOptions opt;
  opt.workers = 2;
  opt.worker_backoff_ms = 1;
  SupervisorResult r = Supervisor(fx.job(), opt).run();

  EXPECT_EQ(r.verdicts, serial);
  EXPECT_FALSE(r.degraded());
  EXPECT_GE(r.respawns, 1u);
  EXPECT_EQ(util::FaultInjector::global().fired("supervisor.spawn"), 1u);
}

TEST(Supervisor, HeartbeatLossRacesNormalExitAndStaysClean) {
  spec::ScenarioSpec s = worker_spec(8);
  s.checkpoint_every = 1;
  const std::vector<Verdict> serial = serial_verdicts(s);

  SupervisorFixture fx(s, "hb_race");
  // The first received heartbeat batch is treated as lost, expiring that
  // worker's deadline immediately.  The SIGKILL then *races* the worker's
  // own completion: either the kill lands mid-campaign (failure path,
  // respawn, resume from checkpoint) or the worker exits 0 first and the
  // reap path must honor the clean exit despite the pending kill intent.
  // Both outcomes must end in the serial verdicts with no quarantine.
  GlobalFaults faults("supervisor.heartbeat@1");
  SupervisorOptions opt;
  opt.workers = 2;
  opt.worker_backoff_ms = 1;
  SupervisorResult r = Supervisor(fx.job(), opt).run();

  EXPECT_EQ(r.verdicts, serial);
  EXPECT_FALSE(r.degraded());
  EXPECT_EQ(util::FaultInjector::global().fired("supervisor.heartbeat"), 1u);
}

}  // namespace
}  // namespace xtest::sim

#include "tools/cli.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

namespace xtest::cli {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun run_cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Cli, UsageOnUnknownCommand) {
  const CliRun r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, GenerateSummary) {
  const CliRun r = run_cli({"generate"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("| session |"), std::string::npos);
  EXPECT_NE(r.out.find("| 0"), std::string::npos);
}

TEST(Cli, GenerateWritesImages) {
  const std::string prefix = temp_path("prog");
  const CliRun r = run_cli({"generate", "--out", prefix});
  EXPECT_EQ(r.code, 0);
  std::ifstream img(prefix + "0.img");
  EXPECT_TRUE(img.good());
}

TEST(Cli, AssembleRunRoundTrip) {
  const std::string src = temp_path("t.s");
  const std::string img = temp_path("t.img");
  {
    std::ofstream f(src);
    f << "        .org 0x010\n"
         "        lda v\n"
         "        hlt\n"
         "        .org 0x80\n"
         "v:      .byte 0x42\n";
  }
  const CliRun a = run_cli({"assemble", src, "--out", img});
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_NE(a.out.find("entry 0x010"), std::string::npos);

  const CliRun r = run_cli({"run", img, "--entry", "0x010"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("reason=hlt"), std::string::npos);
  EXPECT_NE(r.out.find("acc=0x42"), std::string::npos);
}

TEST(Cli, RunWithTraceShowsWaveforms) {
  const std::string src = temp_path("t2.s");
  const std::string img = temp_path("t2.img");
  {
    std::ofstream f(src);
    f << "nop\nhlt\n";
  }
  ASSERT_EQ(run_cli({"assemble", src, "--out", img}).code, 0);
  const CliRun r = run_cli({"run", img, "--entry", "0", "--trace"});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("addr[11]"), std::string::npos);
  EXPECT_NE(r.out.find("data[ 7]"), std::string::npos);
}

TEST(Cli, DisasmListsImage) {
  const std::string src = temp_path("t3.s");
  const std::string img = temp_path("t3.img");
  {
    std::ofstream f(src);
    f << "add 0xf07\nhlt\n";
  }
  ASSERT_EQ(run_cli({"assemble", src, "--out", img}).code, 0);
  const CliRun r = run_cli({"disasm", img});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("add 0xf07"), std::string::npos);
}

TEST(Cli, CampaignReportsCoverage) {
  const CliRun r = run_cli({"campaign", "--bus", "data", "--defects", "20",
                            "--seed", "7"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("bus=data defects=20 coverage=100.0%"),
            std::string::npos);
}

TEST(Cli, CampaignReportsHotPathCounters) {
  const CliRun r = run_cli({"campaign", "--bus", "data", "--defects", "10",
                            "--seed", "7031", "--stats-json"});
  ASSERT_EQ(r.code, 0) << r.err;
  // Human-readable counters line: the memo must have seen real traffic.
  EXPECT_NE(r.out.find("cache_hits="), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("cache_hits=0 "), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("cache_hit_rate="), std::string::npos);
  // The gold-run memo is gone, so the line no longer reports its reuses.
  EXPECT_EQ(r.out.find("gold_reuses="), std::string::npos) << r.out;
  // --stats-json appends the machine-readable record.
  EXPECT_NE(r.out.find("{\"campaign\":\"campaign\""), std::string::npos);
  EXPECT_NE(r.out.find("\"cache_hits\":"), std::string::npos);
  EXPECT_NE(r.out.find("\"gold_reuses\":"), std::string::npos);
  EXPECT_NE(r.out.find("\"run_reuses\":"), std::string::npos);
}

TEST(Cli, CampaignThreadsFlagKeepsCoverageIdentical) {
  const CliRun serial = run_cli({"campaign", "--bus", "addr", "--defects",
                                 "15", "--seed", "7", "--threads", "1"});
  const CliRun par = run_cli({"campaign", "--bus", "addr", "--defects", "15",
                              "--seed", "7", "--threads", "4"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(par.code, 0) << par.err;
  // The coverage line (everything before the stats line) must be bitwise
  // identical at any thread count; only the stats line may differ.
  EXPECT_EQ(serial.out.substr(0, serial.out.find('\n')),
            par.out.substr(0, par.out.find('\n')));
  EXPECT_NE(serial.out.find("threads=1 "), std::string::npos);
  EXPECT_NE(par.out.find("threads=4 "), std::string::npos);
}

TEST(Cli, CampaignReportsLibraryTime) {
  const CliRun r = run_cli({"campaign", "--bus", "addr", "--defects", "15",
                            "--seed", "7", "--threads", "2", "--stats-json"});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::size_t line = r.out.find("\nthreads=2 ");
  ASSERT_NE(line, std::string::npos) << r.out;
  const std::string stats =
      r.out.substr(line + 1, r.out.find('\n', line + 1) - line - 1);
  EXPECT_NE(stats.find(" wall="), std::string::npos) << stats;
  EXPECT_NE(stats.find(" library="), std::string::npos) << stats;
  EXPECT_EQ(stats.find(" screen="), std::string::npos) << stats;
  EXPECT_NE(r.out.find("\"library_seconds\":"), std::string::npos);
  EXPECT_EQ(r.out.find("\"screen_seconds\":"), std::string::npos);
}

TEST(Cli, ErrorsAreReported) {
  // I/O failures and usage mistakes get distinct exit codes.
  EXPECT_EQ(run_cli({"assemble", "/nonexistent.s"}).code, kExitIo);
  EXPECT_EQ(run_cli({"run", "/nonexistent.img", "--entry", "0"}).code,
            kExitIo);
  EXPECT_EQ(run_cli({"campaign", "--bus", "bogus"}).code, kExitUsage);
  EXPECT_EQ(run_cli({"campaign", "--defects", "lots"}).code, kExitUsage);
  EXPECT_EQ(run_cli({"run", "x.img"}).code, kExitUsage);  // missing --entry
  const CliRun r = run_cli({"run"});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, CorruptImageIsSimulationError) {
  const std::string img = temp_path("corrupt.img");
  {
    std::ofstream f(img);
    f << "0x010: zz\n";
  }
  const CliRun r = run_cli({"run", img, "--entry", "0x010"});
  EXPECT_EQ(r.code, kExitSim);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
  EXPECT_NE(r.err.find("line 1"), std::string::npos);
}

TEST(Cli, BadFaultSpecIsAUsageError) {
  const CliRun r = run_cli({"campaign", "--bus", "data", "--defects", "4",
                            "--faults", "site@@"});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("fault spec"), std::string::npos) << r.err;
}

TEST(Cli, FaultsFlagInjectsAndTheRetryPathAbsorbsIt) {
  const CliRun r = run_cli({"campaign", "--bus", "data", "--defects", "10",
                            "--seed", "7", "--threads", "1", "--faults",
                            "parallel.item@3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("retries=1 "), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("sim_errors=0\n"), std::string::npos) << r.out;
}

TEST(Cli, InterruptFlagExitsWithCode5AndResumeCompletes) {
  const std::string ckpt = temp_path("cli_interrupt.ckpt");
  std::remove(ckpt.c_str());
  const std::vector<std::string> args = {"campaign",  "--bus",
                                         "data",      "--defects",
                                         "10",        "--seed",
                                         "7",         "--checkpoint",
                                         ckpt};
  interrupt_flag().store(true);
  const CliRun stopped = run_cli(args);
  interrupt_flag().store(false);
  EXPECT_EQ(stopped.code, kExitInterrupted);
  EXPECT_NE(stopped.err.find("interrupted"), std::string::npos)
      << stopped.err;
  EXPECT_NE(stopped.err.find("resume"), std::string::npos) << stopped.err;

  const CliRun resumed = run_cli(args);
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_NE(resumed.out.find("coverage=100.0%"), std::string::npos)
      << resumed.out;
  std::remove(ckpt.c_str());
}

TEST(Cli, ChaosSoakSmokeRunPasses) {
  const CliRun r = run_cli({"chaos", "--bus", "data", "--defects", "6",
                            "--cycles", "3", "--threads", "1", "--seed",
                            "7"});
  ASSERT_EQ(r.code, 0) << r.err << r.out;
  EXPECT_NE(r.out.find("verdicts identical"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("chaos soak passed"), std::string::npos) << r.out;
}

TEST(Cli, OnlineChaosSoakSmokeRunPasses) {
  const CliRun r = run_cli({"chaos", "--scenario", "online-baseline",
                            "--defects", "6", "--cycles", "4", "--threads",
                            "2"});
  ASSERT_EQ(r.code, 0) << r.err << r.out;
  EXPECT_NE(r.out.find("chaos online bus="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("outcomes identical"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("online chaos soak passed"), std::string::npos)
      << r.out;
}

TEST(Cli, CampaignCheckpointResumesAndReportsRestored) {
  const std::string ckpt = temp_path("cli_campaign.ckpt");
  std::remove(ckpt.c_str());
  const std::vector<std::string> args = {"campaign",  "--bus",
                                         "data",      "--defects",
                                         "12",        "--seed",
                                         "7",         "--checkpoint",
                                         ckpt};
  const CliRun first = run_cli(args);
  ASSERT_EQ(first.code, 0) << first.err;
  EXPECT_NE(first.out.find("restored=0 "), std::string::npos);

  // Second invocation finds every verdict already on disk.
  const CliRun second = run_cli(args);
  ASSERT_EQ(second.code, 0) << second.err;
  EXPECT_EQ(second.out.find("restored=0 "), std::string::npos);
  EXPECT_EQ(first.out.substr(0, first.out.find('\n')),
            second.out.substr(0, second.out.find('\n')));
  std::remove(ckpt.c_str());
}

std::string line_starting_with(const std::string& text,
                               const std::string& prefix) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return line;
  return {};
}

TEST(Cli, ShardFlagRunsOneSliceOfTheLibrary) {
  // Shard 1 of 3 over 12 defects owns indices 1, 4, 7, 10.
  const CliRun r = run_cli({"campaign", "--bus", "data", "--defects", "12",
                            "--seed", "7", "--threads", "1", "--shard",
                            "1/3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("shard=1/3 owned=4"), std::string::npos) << r.out;
}

TEST(Cli, BadShardSpecsAreUsageErrors) {
  // Shard index out of range, missing '/', and --workers + --shard
  // (a worker IS a shard) are all rejected before anything runs.
  EXPECT_EQ(run_cli({"campaign", "--shard", "3/2"}).code, 2);
  EXPECT_EQ(run_cli({"campaign", "--shard", "2"}).code, 2);
  EXPECT_EQ(run_cli({"campaign", "--workers", "2", "--shard", "0/2"}).code, 2);
}

// Scope for supervised CLI runs.  run() executes in the test binary, so
// the worker processes are pointed at the real xtest executable, and
// $TMPDIR (where a run without --checkpoint keeps its shard files) at a
// fresh empty directory, so no earlier run's shards can be restored.
struct SupervisedRunEnv {
  std::filesystem::path dir;
  std::optional<std::string> saved_tmpdir;

  explicit SupervisedRunEnv(const std::string& tag) : dir(temp_path(tag)) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    if (const char* t = std::getenv("TMPDIR")) saved_tmpdir = t;
    setenv("TMPDIR", dir.c_str(), 1);
    setenv("XTEST_WORKER_BINARY", XTEST_BINARY_PATH, 1);
  }
  ~SupervisedRunEnv() {
    unsetenv("XTEST_WORKER_BINARY");
    if (saved_tmpdir)
      setenv("TMPDIR", saved_tmpdir->c_str(), 1);
    else
      unsetenv("TMPDIR");
    std::filesystem::remove_all(dir);
  }

  std::string leftovers() const {
    std::string names;
    for (const auto& e : std::filesystem::directory_iterator(dir))
      names += e.path().filename().string() + " ";
    return names;
  }
};

TEST(Cli, SupervisedWorkersMatchTheSerialVerdictLines) {
  const std::vector<std::string> serial_args = {
      "campaign", "--bus", "data",      "--defects", "10",
      "--seed",   "7",     "--threads", "1"};
  std::vector<std::string> supervised_args = serial_args;
  supervised_args.insert(supervised_args.end(), {"--workers", "2"});
  const CliRun serial = run_cli(serial_args);
  CliRun supervised;
  {
    const SupervisedRunEnv env("cli_supervised_match");
    supervised = run_cli(supervised_args);
  }

  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(supervised.code, 0) << supervised.err << supervised.out;
  // Coverage and verdict breakdown are bitwise identical to the serial
  // run; the supervised summary adds its worker accounting line.
  EXPECT_EQ(line_starting_with(supervised.out, "bus="),
            line_starting_with(serial.out, "bus="));
  EXPECT_EQ(line_starting_with(supervised.out, "detected="),
            line_starting_with(serial.out, "detected="));
  EXPECT_NE(supervised.out.find("workers=2 "), std::string::npos)
      << supervised.out;
  EXPECT_NE(supervised.out.find("quarantined=0"), std::string::npos)
      << supervised.out;
}

TEST(Cli, SupervisedRunsWithoutCheckpointLeaveNoFilesToRestore) {
  // Without --checkpoint the CLI picks the shard base itself, so a run
  // that finishes removes its shard checkpoints (and its job file): the
  // same command run again starts afresh instead of restoring them.
  const SupervisedRunEnv env("cli_supervised_twice");
  for (int run = 1; run <= 2; ++run) {
    const CliRun r =
        run_cli({"campaign", "--bus", "data", "--defects", "10", "--seed",
                 "7", "--threads", "1", "--workers", "2"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find(" restored=0 "), std::string::npos)
        << "run " << run << ":\n" << r.out;
    EXPECT_EQ(env.leftovers(), "") << "after run " << run;
  }
}

TEST(Cli, ScenarioFlagMatchesDefaultCampaignAtEveryThreadCount) {
  // `--scenario paper-baseline` must be bitwise identical to the
  // hard-coded default path: same verdicts, signatures, and coverage.
  for (const char* threads : {"1", "4"}) {
    const CliRun plain = run_cli({"campaign", "--bus", "data", "--defects",
                                  "12", "--seed", "7", "--threads", threads});
    const CliRun spec =
        run_cli({"campaign", "--scenario", "paper-baseline", "--bus", "data",
                 "--defects", "12", "--seed", "7", "--threads", threads});
    ASSERT_EQ(plain.code, 0) << plain.err;
    ASSERT_EQ(spec.code, 0) << spec.err;
    EXPECT_EQ(plain.out.substr(0, plain.out.find('\n')),
              spec.out.substr(0, spec.out.find('\n')))
        << "threads=" << threads;
  }
}

TEST(Cli, ScenariosSubcommandListsEveryBuiltin) {
  const CliRun r = run_cli({"scenarios"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* name :
       {"paper-baseline", "wide-bus-32", "slow-tester", "control-bus",
        "bist-compare", "stress-1k-defects"})
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
}

TEST(Cli, ScenariosDumpRoundTripsThroughAFile) {
  const CliRun dump = run_cli({"scenarios", "--dump", "slow-tester"});
  ASSERT_EQ(dump.code, 0) << dump.err;
  EXPECT_NE(dump.out.find("name = slow-tester"), std::string::npos);
  EXPECT_NE(dump.out.find("system.clock_period_scale = 3"),
            std::string::npos);

  const std::string path = temp_path("slow.scn");
  {
    std::ofstream f(path);
    f << dump.out;
  }
  const CliRun redump = run_cli({"scenarios", "--dump", path});
  ASSERT_EQ(redump.code, 0) << redump.err;
  EXPECT_EQ(dump.out, redump.out);

  const CliRun ran = run_cli({"campaign", "--scenario", path, "--bus",
                              "data", "--defects", "6", "--seed", "7"});
  ASSERT_EQ(ran.code, 0) << ran.err;
  EXPECT_NE(ran.out.find("bus=data defects=6"), std::string::npos) << ran.out;
}

TEST(Cli, UnknownExecTierIsAUsageErrorNamingTheFlag) {
  for (const char* cmd : {"campaign", "chaos", "submit"}) {
    std::vector<std::string> args = {cmd, "--exec-tier", "turbo"};
    if (std::string(cmd) == "submit")  // tier validation precedes connect
      args.insert(args.end(), {"--socket", temp_path("no-daemon.sock")});
    const CliRun r = run_cli(args);
    EXPECT_EQ(r.code, kExitUsage) << cmd;
    EXPECT_NE(r.err.find("--exec-tier"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("turbo"), std::string::npos) << r.err;
  }
}

/// The coverage and verdict-breakdown lines of a campaign's output.
std::string campaign_verdict_lines(const std::string& out) {
  std::string lines;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);)
    if (line.rfind("bus=", 0) == 0 || line.rfind("detected=", 0) == 0)
      lines += line + "\n";
  return lines;
}

TEST(Cli, ExecTierFlagSelectsTheTierAndKeepsVerdictsIdentical) {
  // "decoded" and "jit" are older spellings of the one interpreter.
  const std::vector<std::string> base = {"campaign", "--bus",  "data",
                                         "--defects", "8",     "--seed",
                                         "11",        "--threads", "1"};
  const auto with = [&](const char* tier) {
    std::vector<std::string> args = base;
    args.insert(args.end(), {"--exec-tier", tier});
    return run_cli(args);
  };
  const CliRun ref = with("reference");
  ASSERT_EQ(ref.code, 0) << ref.err;
  ASSERT_NE(campaign_verdict_lines(ref.out), "") << ref.out;
  for (const char* tier : {"decoded", "jit"}) {
    const CliRun r = with(tier);
    ASSERT_EQ(r.code, 0) << tier << ": " << r.err;
    EXPECT_EQ(campaign_verdict_lines(r.out), campaign_verdict_lines(ref.out))
        << tier;
  }
}

TEST(Cli, RetiredBatchFlagsAreAcceptedAndIgnoredByEveryCommand) {
  // --no-batch and --batch-size N belonged to the removed batched
  // pre-screen.  Every command accepts them (N is consumed) and ignores
  // them, not just the campaign-shaped ones.
  EXPECT_EQ(run_cli({"scenarios", "--no-batch"}).code, kExitOk);
  EXPECT_EQ(run_cli({"generate", "--batch-size", "3"}).code, kExitOk);
  // A retired value flag still needs its value.
  EXPECT_EQ(run_cli({"campaign", "--batch-size"}).code, kExitUsage);
}

TEST(Cli, CampaignBatchLineAndNoBatchKeepVerdictsIdentical) {
  // There is no batch line any more, and the retired flags leave the
  // verdict lines bitwise identical to the flagless campaign.
  const std::vector<std::string> base = {"campaign", "--bus",  "data",
                                         "--defects", "12",    "--seed",
                                         "7",        "--threads", "1"};
  const CliRun ref = run_cli(base);
  ASSERT_EQ(ref.code, 0) << ref.err;
  ASSERT_NE(campaign_verdict_lines(ref.out), "") << ref.out;
  EXPECT_EQ(ref.out.find("batch"), std::string::npos) << ref.out;
  for (const std::vector<std::string>& extra :
       std::vector<std::vector<std::string>>{{"--no-batch"},
                                             {"--batch-size", "5"},
                                             {"--no-batch", "--batch-size",
                                              "7"}}) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    const CliRun r = run_cli(args);
    ASSERT_EQ(r.code, 0) << extra.front() << ": " << r.err;
    EXPECT_EQ(campaign_verdict_lines(r.out), campaign_verdict_lines(ref.out))
        << extra.front();
    EXPECT_EQ(r.out.find("batch"), std::string::npos) << r.out;
  }
}

TEST(Cli, BatchSizeZeroOrNegativeIsAUsageErrorNamingTheFlag) {
  // The retired flag keeps its operand check: "-3" would silently wrap
  // through stoull into 2^64-3 without the explicit sign check -- both
  // campaign and chaos must reject it before any work starts.
  for (const char* cmd : {"campaign", "chaos"}) {
    for (const char* bad : {"0", "-3", "-1"}) {
      const CliRun r = run_cli({cmd, "--batch-size", bad});
      EXPECT_EQ(r.code, kExitUsage) << cmd << " --batch-size " << bad;
      EXPECT_NE(r.err.find("--batch-size"), std::string::npos) << r.err;
      EXPECT_NE(r.err.find(bad), std::string::npos) << r.err;
    }
  }
}

TEST(Cli, ChaosSoakExercisesTheBatchedPathAtANonDivisorBatchSize) {
  // A chaos soak written for the batched screen, with a 7-lane batch that
  // does not divide the 6-defect library: the flag is now ignored, and the
  // kill/crash/resume chains still match the uninterrupted reference.
  const CliRun r = run_cli({"chaos", "--bus", "data", "--defects", "6",
                            "--cycles", "3", "--threads", "1", "--seed",
                            "7", "--batch-size", "7"});
  ASSERT_EQ(r.code, 0) << r.err << r.out;
  EXPECT_NE(r.out.find("verdicts identical"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("chaos soak passed"), std::string::npos) << r.out;
}

TEST(Cli, OldScenarioWithBatchKeysRunsAndDumpsWithoutThem) {
  // A scenario written when the batched pre-screen and the gold-run memo
  // existed: their four keys parse and are ignored, with or without the
  // retired flags, and a re-dump drops them with one stderr note per key.
  const std::vector<std::string> keys = {
      "campaign.batched", "campaign.batch_size", "campaign.reuse_gold",
      "campaign.gold_cache_capacity"};
  const CliRun dump = run_cli({"scenarios", "--dump", "paper-baseline"});
  ASSERT_EQ(dump.code, 0) << dump.err;
  for (const std::string& key : keys)
    EXPECT_EQ(dump.out.find(key), std::string::npos) << dump.out;
  EXPECT_EQ(dump.err, "");
  const std::string path = temp_path("batched.scn");
  {
    std::ofstream f(path);
    f << dump.out << "campaign.batched = true\ncampaign.batch_size = 7\n"
      << "campaign.reuse_gold = false\ncampaign.gold_cache_capacity = 1\n";
  }
  const std::vector<std::string> small = {"--defects", "16", "--threads",
                                          "2"};
  const auto campaign = [&](const std::string& scenario,
                            std::vector<std::string> extra) {
    std::vector<std::string> args = {"campaign", "--scenario", scenario};
    args.insert(args.end(), small.begin(), small.end());
    args.insert(args.end(), extra.begin(), extra.end());
    return run_cli(args);
  };
  const CliRun ref = campaign("paper-baseline", {});
  ASSERT_EQ(ref.code, 0) << ref.err;
  for (const std::vector<std::string>& extra :
       std::vector<std::vector<std::string>>{
           {}, {"--no-batch"}, {"--batch-size", "7"}}) {
    const CliRun r = campaign(path, extra);
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_EQ(campaign_verdict_lines(r.out), campaign_verdict_lines(ref.out))
        << (extra.empty() ? "no flag" : extra.front());
  }

  const CliRun redump = run_cli({"scenarios", "--dump", path});
  ASSERT_EQ(redump.code, 0) << redump.err;
  EXPECT_EQ(redump.out, dump.out);
  for (const std::string& key : keys) {
    const std::size_t at = redump.err.find("'" + key + "'");
    EXPECT_NE(at, std::string::npos) << redump.err;
    EXPECT_EQ(redump.err.find("'" + key + "'", at + 1), std::string::npos)
        << redump.err;
  }
  std::remove(path.c_str());
}

TEST(Cli, CheckedInScenarioFilesMatchTheBuiltins) {
  // examples/scenarios holds one file per built-in, each byte-identical to
  // `scenarios --dump NAME`: a built-in changed without regenerating its
  // file fails here.
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(XTEST_SOURCE_DIR) + "/examples/scenarios")) {
    if (entry.path().extension() != ".scn") continue;
    const std::string name = entry.path().stem().string();
    files.insert(name);
    std::ifstream f(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << f.rdbuf();
    const CliRun dump = run_cli({"scenarios", "--dump", name});
    ASSERT_EQ(dump.code, 0) << name << ": " << dump.err;
    EXPECT_EQ(text.str(), dump.out) << name << ".scn is stale";
  }
  const CliRun list = run_cli({"scenarios"});
  ASSERT_EQ(list.code, 0) << list.err;
  for (const std::string& name : files)
    EXPECT_NE(list.out.find(name), std::string::npos) << name;
  EXPECT_GE(files.size(), 8u);
}

TEST(Cli, ScenariosDumpRoundTripsTheExecTierKey) {
  const CliRun dump = run_cli({"scenarios", "--dump", "paper-baseline"});
  ASSERT_EQ(dump.code, 0) << dump.err;
  const std::string key = "system.exec_tier = reference";
  ASSERT_NE(dump.out.find(key), std::string::npos) << dump.out;
  const std::string path = temp_path("tier.scn");
  const auto write_with = [&](const std::string& value) {
    std::string text = dump.out;
    text.replace(text.find(key), key.size(), "system.exec_tier = " + value);
    std::ofstream f(path);
    f << text;
  };
  const std::vector<std::string> small = {"--defects", "8", "--threads", "1"};
  const auto campaign = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = {"campaign", "--scenario", path};
    args.insert(args.end(), small.begin(), small.end());
    args.insert(args.end(), extra.begin(), extra.end());
    return run_cli(args);
  };
  write_with("reference");
  const CliRun ref = campaign({});
  ASSERT_EQ(ref.code, 0) << ref.err;

  // Scenario files (and queued jobs) written when "decoded" and "jit"
  // were separate tiers still load, run the one interpreter with the
  // same verdict lines -- also under the matching --exec-tier flag -- and
  // dump back as "reference".
  for (const char* old : {"decoded", "jit"}) {
    write_with(old);
    const CliRun redump = run_cli({"scenarios", "--dump", path});
    ASSERT_EQ(redump.code, 0) << redump.err;
    EXPECT_EQ(redump.out, dump.out) << old;
    for (const bool flag : {false, true}) {
      const CliRun r = flag ? campaign({"--exec-tier", old}) : campaign({});
      ASSERT_EQ(r.code, 0) << old << ": " << r.err;
      EXPECT_EQ(campaign_verdict_lines(r.out), campaign_verdict_lines(ref.out))
          << old << (flag ? " with --exec-tier" : "");
    }
  }

  // An unknown tier value is a usage error naming the key and its line.
  std::string text = dump.out;
  text.replace(text.find(key), key.size(), "system.exec_tier = warp");
  {
    std::ofstream f(path);
    f << text;
  }
  const CliRun bad = run_cli({"campaign", "--scenario", path});
  EXPECT_EQ(bad.code, kExitUsage);
  EXPECT_NE(bad.err.find("exec_tier"), std::string::npos) << bad.err;
}

TEST(Cli, ScenariosDumpRoundTripsOnlineAndElectricalKeys) {
  const CliRun dump = run_cli({"scenarios", "--dump", "online-baseline"});
  ASSERT_EQ(dump.code, 0) << dump.err;
  ASSERT_NE(dump.out.find("online.enabled = true"), std::string::npos)
      << dump.out;
  ASSERT_NE(dump.out.find("online.slice_cycles = 512"), std::string::npos)
      << dump.out;
  ASSERT_NE(dump.out.find("system.electrical = full-swing"),
            std::string::npos)
      << dump.out;

  // Overriding the electrical backend and the slice budget in a scenario
  // file survives a dump round-trip.
  std::string text = dump.out;
  const std::string slice_key = "online.slice_cycles = 512";
  text.replace(text.find(slice_key), slice_key.size(),
               "online.slice_cycles = 96");
  const std::string elec_key = "system.electrical = full-swing";
  text.replace(text.find(elec_key), elec_key.size(),
               "system.electrical = low-swing");
  const std::string path = temp_path("online.scn");
  {
    std::ofstream f(path);
    f << text;
  }
  const CliRun redump = run_cli({"scenarios", "--dump", path});
  ASSERT_EQ(redump.code, 0) << redump.err;
  EXPECT_NE(redump.out.find("online.slice_cycles = 96"), std::string::npos)
      << redump.out;
  EXPECT_NE(redump.out.find("system.electrical = low-swing"),
            std::string::npos)
      << redump.out;

  // The low-swing built-in dumps its backend too.
  const CliRun low = run_cli({"scenarios", "--dump", "low-swing-bus"});
  ASSERT_EQ(low.code, 0) << low.err;
  EXPECT_NE(low.out.find("system.electrical = low-swing"),
            std::string::npos)
      << low.out;
}

TEST(Cli, UnknownElectricalBackendIsAUsageErrorNamingTheKey) {
  const CliRun dump = run_cli({"scenarios", "--dump", "paper-baseline"});
  ASSERT_EQ(dump.code, 0) << dump.err;
  std::string text = dump.out;
  const std::string key = "system.electrical = full-swing";
  ASSERT_NE(text.find(key), std::string::npos) << text;
  text.replace(text.find(key), key.size(),
               "system.electrical = half-swing");
  const std::string path = temp_path("badswing.scn");
  {
    std::ofstream f(path);
    f << text;
  }
  const CliRun bad = run_cli({"campaign", "--scenario", path});
  EXPECT_EQ(bad.code, kExitUsage);
  EXPECT_NE(bad.err.find("system.electrical"), std::string::npos) << bad.err;
  EXPECT_NE(bad.err.find("full-swing"), std::string::npos) << bad.err;
}

TEST(Cli, BadOnlineValueIsAUsageErrorNamingTheKey) {
  const CliRun dump = run_cli({"scenarios", "--dump", "online-baseline"});
  ASSERT_EQ(dump.code, 0) << dump.err;
  std::string text = dump.out;
  const std::string key = "online.deadline_cycles = 1024";
  ASSERT_NE(text.find(key), std::string::npos) << text;
  text.replace(text.find(key), key.size(), "online.deadline_cycles = soon");
  const std::string path = temp_path("badonline.scn");
  {
    std::ofstream f(path);
    f << text;
  }
  const CliRun bad = run_cli({"campaign", "--scenario", path});
  EXPECT_EQ(bad.code, kExitUsage);
  EXPECT_NE(bad.err.find("online.deadline_cycles"), std::string::npos)
      << bad.err;
}

TEST(Cli, OnlineCampaignReportsLatencyAndInterference) {
  const CliRun r = run_cli({"campaign", "--scenario", "online-baseline",
                            "--defects", "8", "--stats-json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("online gold: rounds="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("online latency: samples="), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"online_detection_latency_cycles\":"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"online_rounds\":"), std::string::npos) << r.out;
}

TEST(Cli, UnknownScenarioNameIsAnIoError) {
  const CliRun r = run_cli({"campaign", "--scenario", "no-such-scenario"});
  EXPECT_EQ(r.code, kExitIo);
  EXPECT_NE(r.err.find("cannot open scenario"), std::string::npos) << r.err;
}

TEST(Cli, MalformedScenarioFileIsAUsageErrorNamingTheLine) {
  const std::string path = temp_path("bad.scn");
  {
    std::ofstream f(path);
    f << "# comment\n"
         "bus = addr\n"
         "defects = lots\n";
  }
  const CliRun r = run_cli({"campaign", "--scenario", path});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("line 3"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("defects"), std::string::npos) << r.err;
}

TEST(Cli, UnknownFlagIsAUsageError) {
  const CliRun r = run_cli({"campaign", "--wibble"});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("unknown flag '--wibble'"), std::string::npos)
      << r.err;
}

TEST(Cli, UsageIsGeneratedFromTheFlagTable) {
  // usage() and the parser consume the same table, so every flag the
  // parser accepts must appear in the usage text (the drift the old
  // hand-maintained usage string allowed).
  const CliRun r = run_cli({"frobnicate"});
  for (const char* flag :
       {"--scenario", "--bus", "--defects", "--seed", "--threads",
        "--checkpoint", "--no-retry", "--faults", "--defect-deadline-ms",
        "--stats-json", "--entry", "--trace",
        "--max-cycles", "--cycles", "--dump", "--out"})
    EXPECT_NE(r.err.find(flag), std::string::npos) << flag;
  EXPECT_NE(r.err.find("paper-baseline"), std::string::npos);
  // Retired flags still parse but are not advertised.
  for (const char* retired : {"--batch-size", "--no-batch"})
    EXPECT_EQ(r.err.find(retired), std::string::npos) << retired;
}

TEST(Cli, NegativeHeartbeatFdIsAUsageErrorNamingTheFlag) {
  // stoull would wrap "-1" into a huge descriptor; the CLI must reject the
  // sign up front instead of failing later with EBADF.
  const CliRun r = run_cli({"campaign", "--defects", "4", "--heartbeat-fd",
                            "-1"});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("--heartbeat-fd"), std::string::npos) << r.err;
}

TEST(Cli, ClosedHeartbeatFdIsAUsageErrorNamingTheFlag) {
  // Descriptor 973 is valid syntax but not open in this process.
  const CliRun r = run_cli({"campaign", "--defects", "4", "--heartbeat-fd",
                            "973"});
  EXPECT_EQ(r.code, kExitUsage);
  EXPECT_NE(r.err.find("--heartbeat-fd: descriptor 973 is not open"),
            std::string::npos)
      << r.err;
}

TEST(Cli, ServeRequiresExactlyOneEndpointAndAQueue) {
  const CliRun neither = run_cli({"serve", "--queue", temp_path("q1")});
  EXPECT_EQ(neither.code, kExitUsage);
  EXPECT_NE(neither.err.find("--socket"), std::string::npos) << neither.err;

  const CliRun both = run_cli({"serve", "--socket", temp_path("s.sock"),
                               "--port", "1", "--queue", temp_path("q2")});
  EXPECT_EQ(both.code, kExitUsage);

  const CliRun no_queue = run_cli({"serve", "--socket", temp_path("s.sock")});
  EXPECT_EQ(no_queue.code, kExitUsage);
  EXPECT_NE(no_queue.err.find("--queue"), std::string::npos) << no_queue.err;
}

TEST(Cli, SubmitRequiresAnEndpointAndAValidPriority) {
  const CliRun no_endpoint = run_cli({"submit"});
  EXPECT_EQ(no_endpoint.code, kExitUsage);

  const CliRun bad_priority = run_cli({"submit", "--port", "1", "--priority",
                                       "12"});
  EXPECT_EQ(bad_priority.code, kExitUsage);
  EXPECT_NE(bad_priority.err.find("--priority"), std::string::npos)
      << bad_priority.err;

  const CliRun negative = run_cli({"submit", "--port", "1", "--priority",
                                   "-3"});
  EXPECT_EQ(negative.code, kExitUsage);
}

TEST(Cli, RunAcceptsAScenarioForTheSystemConfig) {
  const std::string src = temp_path("scn_run.s");
  const std::string img = temp_path("scn_run.img");
  {
    std::ofstream f(src);
    f << "        lda v\n"
         "        hlt\n"
         "        .org 0x80\n"
         "v:      .byte 0x21\n";
  }
  ASSERT_EQ(run_cli({"assemble", src, "--out", img}).code, 0);
  const CliRun r = run_cli(
      {"run", img, "--entry", "0", "--scenario", "slow-tester"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("acc=0x21"), std::string::npos) << r.out;
}

}  // namespace
}  // namespace xtest::cli

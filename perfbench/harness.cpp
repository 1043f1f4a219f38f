// In-process harness for the repo benchmark (perfbench/run.py).
//
// Runs one `xtest campaign` workload by making the same public calls the
// CLI's campaign command makes, in the same order:
//
//   spec::load_scenario + flag overrides -> ScenarioSpec::make_library()
//   -> make_sessions() -> run_detection_sessions / run_online_detection_
//   sessions / sim::Supervisor::run
//
// and measures each call from the outside.  Nothing in src/ is
// instrumented: every span and counter here is taken around a public call
// or read from the CampaignStats / result objects the call fills.
//
// Modes (--mode):
//   setup     time make_library() + make_sessions() only, then exit; the
//             benchmark's set-up time.
//   untraced  run the whole workload with one clock pair around it (the
//             baseline for the tracing overhead).
//   traced    run the whole workload recording a span around every call,
//             plus an extra gold run per live session on a nominal System.
//
// --dump FILE writes the per-defect outcome vector (one line per defect:
// verdict, and on-line latency and interference counters); --oracle FILE
// compares against such a dump and counts mismatching defects.  The last
// line of stdout is one JSON object; spans are kept in memory and emitted
// there when the run ends.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/microcode.h"
#include "sim/campaign.h"
#include "sim/online.h"
#include "sim/signature.h"
#include "sim/supervisor.h"
#include "soc/system.h"
#include "spec/scenario.h"

namespace {

using namespace xtest;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double since_start_us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// In-memory span recorder.  Spans nest by construction order: a span
/// opened while another is open is its child.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, Clock::now(), {}, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    open_.pop_back();
  }
  double seconds(const char* name) const {
    for (const Span& s : spans_)
      if (s.name == name) return seconds_between(s.start, s.end);
    return 0.0;
  }
  std::string json(const std::string& invocation) const {
    std::ostringstream out;
    out << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                    "\"parent\":%d,\"invocation\":\"%s\"}",
                    i ? "," : "", s.name.c_str(), since_start_us(s.start),
                    since_start_us(s.end), s.parent, invocation.c_str());
      out << buf;
    }
    out << ']';
    return out.str();
  }

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    int parent;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

struct CpuTimes {
  double self_s = 0.0;
  double children_s = 0.0;
};

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

CpuTimes cpu_now() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return {tv_seconds(self.ru_utime) + tv_seconds(self.ru_stime),
          tv_seconds(kids.ru_utime) + tv_seconds(kids.ru_stime)};
}

struct Args {
  std::string mode = "traced";
  std::map<std::string, std::string> flags;  // campaign-shaped flags
  std::string xtest_binary;
  std::string dump_path;
  std::string oracle_path;
  std::string invocation = "0";
};

Args parse_args(int argc, char** argv) {
  static const std::vector<std::string> kValueFlags = {
      "scenario", "bus",        "defects", "seed",   "threads",
      "workers",  "checkpoint", "exec-tier"};
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + ": missing value");
      return argv[++i];
    };
    if (arg == "--mode") {
      a.mode = value();
    } else if (arg == "--xtest") {
      a.xtest_binary = value();
    } else if (arg == "--dump") {
      a.dump_path = value();
    } else if (arg == "--oracle") {
      a.oracle_path = value();
    } else if (arg == "--invocation") {
      a.invocation = value();
    } else if (arg == "--no-batch") {
      a.flags["no-batch"] = "";
    } else if (arg.rfind("--", 0) == 0 &&
               std::find(kValueFlags.begin(), kValueFlags.end(),
                         arg.substr(2)) != kValueFlags.end()) {
      a.flags[arg.substr(2)] = value();
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (a.mode != "setup" && a.mode != "untraced" && a.mode != "traced")
    throw std::invalid_argument("--mode must be setup, untraced or traced");
  return a;
}

std::uint64_t to_u64(const std::string& v) { return std::stoull(v, nullptr, 0); }

/// The scenario `xtest campaign` builds from the same flags: --scenario
/// (built-in name or scenario file) or the paper baseline, then per-flag
/// overrides.
spec::ScenarioSpec make_scenario(const std::map<std::string, std::string>& f) {
  spec::ScenarioSpec s = spec::load_scenario(
      f.count("scenario") ? f.at("scenario") : "paper-baseline");
  if (f.count("bus")) {
    const std::string& b = f.at("bus");
    if (b == "addr") s.bus = soc::BusKind::kAddress;
    else if (b == "data") s.bus = soc::BusKind::kData;
    else if (b == "ctrl") s.bus = soc::BusKind::kControl;
    else throw std::invalid_argument("bad --bus '" + b + "'");
  }
  if (f.count("defects")) s.defect_count = to_u64(f.at("defects"));
  if (f.count("seed")) s.seed = to_u64(f.at("seed"));
  if (f.count("threads"))
    s.threads = static_cast<unsigned>(to_u64(f.at("threads")));
  if (f.count("workers")) s.workers = to_u64(f.at("workers"));
  if (f.count("no-batch")) s.batched = false;
  if (f.count("exec-tier")) {
    const std::optional<cpu::ExecTier> t = cpu::parse_exec_tier(f.at("exec-tier"));
    if (!t) throw std::invalid_argument("bad --exec-tier");
    s.system.exec_tier = *t;
  }
  s.validate();
  return s;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
std::uint64_t percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Everything a campaign call returns that the benchmark reads.
struct CampaignOutput {
  std::vector<sim::Verdict> verdicts;
  std::vector<sim::OnlineOutcome> outcomes;  // on-line mode only
  util::CampaignStats stats;
  std::size_t spawns = 0, respawns = 0, heartbeats = 0;
  std::vector<std::string> checkpoint_files;
};

/// One line per defect; the oracle comparison and the verdict hash work on
/// these lines.
std::vector<std::string> outcome_lines(const CampaignOutput& c) {
  std::vector<std::string> lines(c.verdicts.size());
  for (std::size_t i = 0; i < c.verdicts.size(); ++i) {
    lines[i] = std::to_string(static_cast<int>(c.verdicts[i]));
    if (i < c.outcomes.size()) {
      const sim::OnlineOutcome& o = c.outcomes[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64,
                    o.detection_latency_cycles, o.rounds, o.heartbeats,
                    o.deadlines_late, o.deadlines_missed);
      lines[i] += buf;
    }
  }
  return lines;
}

/// The supervisor job `xtest campaign --workers N` builds: the worker
/// scenario (supervision stripped) is written next to the checkpoint base.
sim::SupervisorJob supervisor_job(const spec::ScenarioSpec& s,
                                  const xtalk::DefectLibrary& lib,
                                  const std::vector<bool>& live,
                                  const std::string& base,
                                  const std::string& binary) {
  sim::SupervisorJob job;
  job.binary = binary;
  job.defect_count = lib.size();
  for (std::size_t i = 0; i < live.size(); ++i)
    if (live[i]) job.sections.push_back("session" + std::to_string(i));
  job.checkpoint_key = sim::default_checkpoint_key(s.bus, lib);
  job.checkpoint_base = base;
  spec::ScenarioSpec worker = s;
  worker.workers = 0;
  job.scenario_path = base + ".job.scn";
  std::ofstream out(job.scenario_path);
  if (!(out << spec::serialize_scenario(worker)))
    throw std::runtime_error("cannot write " + job.scenario_path);
  return job;
}

CampaignOutput run_campaign(const spec::ScenarioSpec& s, const Args& a,
                            const xtalk::DefectLibrary& lib,
                            const std::vector<sbst::GenerationResult>& sessions,
                            const std::vector<bool>& live) {
  CampaignOutput out;
  const std::string ckpt =
      a.flags.count("checkpoint") ? a.flags.at("checkpoint") : "";
  if (s.workers > 0) {
    if (ckpt.empty() || a.xtest_binary.empty())
      throw std::invalid_argument("--workers needs --checkpoint and --xtest");
    const sim::SupervisorJob job =
        supervisor_job(s, lib, live, ckpt, a.xtest_binary);
    sim::SupervisorOptions sup;
    sup.workers = s.workers;
    sim::SupervisorResult r = sim::Supervisor(job, sup).run();
    std::remove(job.scenario_path.c_str());
    out.verdicts = std::move(r.verdicts);
    out.stats = std::move(r.stats);
    for (const sim::ShardOutcome& o : r.shards) out.spawns += o.spawns;
    out.respawns = r.respawns;
    out.heartbeats = r.heartbeats;
    for (std::size_t k = 0; k < s.workers; ++k)
      out.checkpoint_files.push_back(sim::Supervisor::shard_checkpoint_path(ckpt, k));
    return out;
  }
  sim::CampaignOptions opts = s.campaign_options(&out.stats);
  if (!ckpt.empty()) {
    opts.checkpoint_path = ckpt;
    opts.checkpoint_key = sim::default_checkpoint_key(s.bus, lib);
    out.checkpoint_files.push_back(ckpt);
  }
  if (s.online.enabled) {
    sim::OnlineResult r = sim::run_online_detection_sessions(
        s.system, s.online, sessions, s.bus, lib, opts);
    out.verdicts = std::move(r.verdicts);
    out.outcomes = std::move(r.outcomes);
    return out;
  }
  out.verdicts = sim::run_detection_sessions(s.system, sessions, s.bus, lib, opts);
  return out;
}

int run(const Args& a) {
  const Clock::time_point t0 = Clock::now();
  Tracer tr(a.mode == "traced");
  const int root = tr.begin("invocation");

  spec::ScenarioSpec s;
  {
    ScopedSpan span(tr, "spec.scenario");
    s = make_scenario(a.flags);
  }
  const Clock::time_point setup0 = Clock::now();
  std::optional<xtalk::DefectLibrary> lib;
  {
    ScopedSpan span(tr, "xtalk.library");
    lib.emplace(s.make_library());
  }
  std::vector<sbst::GenerationResult> sessions;
  {
    ScopedSpan span(tr, "sbst.programs");
    sessions = s.make_sessions();
  }
  const double setup_s = seconds_between(setup0, Clock::now());
  if (a.mode == "setup") {
    std::printf("{\"setup_s\":%.9f,\"defects\":%zu}\n", setup_s, lib->size());
    return 0;
  }

  std::vector<bool> live(sessions.size());
  std::size_t live_count = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i)
    live_count += (live[i] = !sessions[i].program.tests.empty()) ? 1 : 0;

  if (a.mode == "traced") {
    // Gold runs outside the campaign span: the nominal cost of the
    // self-test programs themselves.
    ScopedSpan span(tr, "soc.gold");
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (!live[i]) continue;
      soc::System sys(s.system);
      (void)sim::run_and_capture(sys, sessions[i].program, 50'000'000);
    }
  }

  const CpuTimes cpu0 = cpu_now();
  const Clock::time_point c0 = Clock::now();
  CampaignOutput c;
  {
    ScopedSpan span(tr, "sim.campaign");
    c = run_campaign(s, a, *lib, sessions, live);
  }
  const double campaign_s = seconds_between(c0, Clock::now());
  const CpuTimes cpu1 = cpu_now();
  tr.end(root);
  const double total_s = seconds_between(t0, Clock::now());

  // Correctness bookkeeping happens after the clock stops.
  const std::vector<std::string> lines = outcome_lines(c);
  std::string text;
  for (const std::string& l : lines) text += l + '\n';
  if (!a.dump_path.empty()) std::ofstream(a.dump_path) << text;
  long mismatches = -1;  // -1 = no oracle given
  if (!a.oracle_path.empty()) {
    std::ifstream in(a.oracle_path);
    if (!in) throw std::runtime_error("cannot read oracle " + a.oracle_path);
    std::vector<std::string> expect;
    for (std::string l; std::getline(in, l);) expect.push_back(l);
    mismatches = 0;
    const std::size_t n = std::max(expect.size(), lines.size());
    for (std::size_t i = 0; i < n; ++i)
      if (i >= expect.size() || i >= lines.size() || expect[i] != lines[i])
        ++mismatches;
  }

  const util::CampaignStats& st = c.stats;
  std::printf("{\"mode\":\"%s\",\"defects\":%zu,\"total_s\":%.9f,"
              "\"setup_s\":%.9f,\"hash\":\"%016" PRIx64 "\",\"mismatches\":%ld",
              a.mode.c_str(), lib->size(), total_s, setup_s, fnv1a(text),
              mismatches);
  if (a.mode == "traced") {
    std::vector<std::uint64_t> lat;
    for (const sim::OnlineOutcome& o : c.outcomes)
      if (o.detection_latency_cycles > 0) lat.push_back(o.detection_latency_cycles);
    std::uint64_t ckpt_bytes = 0;
    for (const std::string& f : c.checkpoint_files) ckpt_bytes += file_size(f);
    const double lanes =
        static_cast<double>(std::max(1u, st.threads)) *
        static_cast<double>(std::max<std::size_t>(1, s.workers));
    const double self_cpu = cpu1.self_s - cpu0.self_s;
    const double worker_cpu = cpu1.children_s - cpu0.children_s;
    const double all_cpu = self_cpu + worker_cpu;
    const double screen_slots =
        static_cast<double>(lib->size()) * static_cast<double>(live_count);
    const std::map<std::string, double> counters = {
        {"xtalk.library_s", tr.seconds("xtalk.library")},
        {"xtalk.library_attempts", static_cast<double>(lib->attempts())},
        {"xtalk.library_accept_ratio",
         lib->attempts() ? static_cast<double>(lib->size()) / lib->attempts() : 0.0},
        {"xtalk.screen_ratio",
         screen_slots > 0 ? st.batch_screened / screen_slots : 0.0},
        {"xtalk.batch_fill", st.batch_fill()},
        {"xtalk.cache_lookups", static_cast<double>(st.cache_hits + st.cache_misses)},
        {"xtalk.cache_hit_rate", st.cache_hit_rate()},
        {"sbst.programs_s", tr.seconds("sbst.programs")},
        {"sbst.sessions", static_cast<double>(live_count)},
        {"soc.gold_s", tr.seconds("soc.gold")},
        {"soc.online_rounds", static_cast<double>(st.online_rounds)},
        {"soc.online_deadlines_missed", static_cast<double>(st.online_deadlines_missed)},
        {"cpu.sim_cycles_per_cpu_s",
         all_cpu > 0 ? static_cast<double>(st.simulated_cycles) / all_cpu : 0.0},
        {"cpu.decode_cache_hits", static_cast<double>(st.decode_cache_hits)},
        {"cpu.jit_bailouts", static_cast<double>(st.jit_bailouts)},
        {"sim.campaign_s", campaign_s},
        {"sim.campaign_cpu_s", self_cpu},
        {"sim.campaign_wait_thread_s", campaign_s * lanes - all_cpu},
        {"sim.defects_simulated", static_cast<double>(st.defects_simulated)},
        {"sim.simulated_cycles", static_cast<double>(st.simulated_cycles)},
        {"sim.retries", static_cast<double>(st.retries)},
        {"sim.sim_errors", static_cast<double>(st.sim_errors)},
        {"sim.gold_reuses", static_cast<double>(st.gold_reuses)},
        {"sim.run_reuses", static_cast<double>(st.run_reuses)},
        {"sim.checkpoint_bytes", static_cast<double>(ckpt_bytes)},
        {"sim.checkpoint_flush_failures", static_cast<double>(st.flush_failures)},
        {"sim.online_latency_cycles.p50", static_cast<double>(percentile(lat, 50))},
        {"sim.online_latency_cycles.p99", static_cast<double>(percentile(lat, 99))},
        {"sim.supervisor.spawns", static_cast<double>(c.spawns)},
        {"sim.supervisor.respawns", static_cast<double>(c.respawns)},
        {"sim.supervisor.heartbeats", static_cast<double>(c.heartbeats)},
        {"sim.supervisor.worker_cpu_s", worker_cpu},
        {"util.parallel.cpu_utilization",
         campaign_s > 0 ? all_cpu / (campaign_s * lanes) : 0.0},
    };
    std::printf(",\"counters\":{");
    bool first = true;
    for (const auto& [k, v] : counters) {
      std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
      first = false;
    }
    std::printf("},\"spans\":%s", tr.json(a.invocation).c_str());
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harness: error: %s\n", e.what());
    return 2;
  }
}

#include "xtalk/defect.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace xtest::xtalk {

namespace {

/// Offset of pair (i, j), i < j, in the upper triangle of a `width`-wire
/// bus (row i has width-1-i entries).
std::size_t pair_index(unsigned width, unsigned i, unsigned j) {
  const std::size_t row_start = static_cast<std::size_t>(i) * width -
                                static_cast<std::size_t>(i) * (i + 1) / 2;
  return row_start + (j - i - 1);
}

}  // namespace

double recommended_cth(const RcNetwork& nominal, double ratio) {
  return ratio * nominal.max_net_coupling();
}

CouplingRows::CouplingRows(const RcNetwork& nominal)
    : width_(nominal.width()) {
  const std::size_t terms = static_cast<std::size_t>(width_) * (width_ - 1);
  coupling_.reserve(terms);
  pair_.reserve(terms);
  for (unsigned i = 0; i < width_; ++i)
    for (unsigned j = 0; j < width_; ++j) {
      // RcNetwork::net_coupling's order (j ascending); the zero diagonal
      // adds nothing, and apply() stores coupling(min, max) * factor on
      // both sides.
      if (j == i) continue;
      const unsigned a = std::min(i, j), b = std::max(i, j);
      coupling_.push_back(nominal.coupling(a, b));
      pair_.push_back(static_cast<std::uint32_t>(pair_index(width_, a, b)));
    }
}

double CouplingRows::net_coupling(unsigned i, const double* factors) const {
  const std::size_t row = static_cast<std::size_t>(i) * (width_ - 1);
  const double* c = coupling_.data() + row;
  const std::uint32_t* p = pair_.data() + row;
  double sum = 0.0;
  for (unsigned k = 0; k + 1 < width_; ++k) sum += c[k] * factors[p[k]];
  return sum;
}

bool CouplingRows::any_exceeds(const double* factors, double cth_fF) const {
  for (unsigned i = 0; i < width_; ++i)
    if (net_coupling(i, factors) > cth_fF) return true;
  return false;
}

void perturbed_net_coupling(const RcNetwork& nominal, const double* factors,
                            double* net) {
  const CouplingRows rows(nominal);
  for (unsigned i = 0; i < rows.width(); ++i)
    net[i] = rows.net_coupling(i, factors);
}

Defect::Defect(unsigned width, std::vector<double> factors)
    : width_(width), factors_(std::move(factors)) {
  const std::size_t expected =
      static_cast<std::size_t>(width_) * (width_ - 1) / 2;
  if (factors_.size() != expected)
    throw std::invalid_argument(
        "Defect: " + std::to_string(factors_.size()) + " factors for width " +
        std::to_string(width_) + " (expected " + std::to_string(expected) +
        ")");
  for (std::size_t k = 0; k < factors_.size(); ++k)
    if (!std::isfinite(factors_[k]) || factors_[k] < 0.0)
      throw std::invalid_argument(
          "Defect: factor " + std::to_string(k) +
          " is negative or non-finite (" + std::to_string(factors_[k]) + ")");
}

std::size_t Defect::tri_index(unsigned i, unsigned j) const {
  assert(i != j && i < width_ && j < width_);
  if (i > j) std::swap(i, j);
  return pair_index(width_, i, j);
}

double Defect::factor(unsigned i, unsigned j) const {
  return factors_[tri_index(i, j)];
}

void Defect::check_width(const RcNetwork& nominal, const char* caller) const {
  if (nominal.width() != width_)
    throw std::invalid_argument(
        std::string(caller) + ": defect width " + std::to_string(width_) +
        " does not match bus width " + std::to_string(nominal.width()));
}

RcNetwork Defect::apply(const RcNetwork& nominal) const {
  RcNetwork net = nominal;
  apply(nominal, net);
  return net;
}

void Defect::apply(const RcNetwork& nominal, RcNetwork& out) const {
  check_width(nominal, "Defect::apply");
  out = nominal;
  out.scale_couplings(factors_.data());
}

std::vector<unsigned> Defect::defective_wires(const RcNetwork& nominal,
                                              double cth_fF) const {
  check_width(nominal, "Defect::defective_wires");
  const CouplingRows rows(nominal);
  std::vector<unsigned> out;
  for (unsigned i = 0; i < width_; ++i)
    if (rows.net_coupling(i, factors_.data()) > cth_fF) out.push_back(i);
  return out;
}

namespace {

// Raw engine outputs per block and per replay task.  Both are even, so
// every block and task starts on a gaussian pair boundary (rng.h).
constexpr std::size_t kBlockOutputs = 16384;
constexpr std::size_t kTaskOutputs = 4096;
constexpr std::size_t kTasksPerBlock = kBlockOutputs / kTaskOutputs;
// Blocks in flight at once: scratch is bounded by this many blocks,
// never by the library size.
constexpr unsigned kMaxSlots = 4;

/// The rejection sampling of Fig. 10 as a pipeline over blocks of the raw
/// engine stream (DESIGN.md D12).  Every worker runs work() and takes,
/// under one lock, the first task that is ready:
///   consume  block b (serial, in block order): append its factors to the
///            candidate stream, Cth-test whole candidates in index order,
///            accept until `count` or `max_attempts`;
///   fill     block b (serial, in block order): the next raw outputs;
///   replay   one task of a filled block: Rng::gaussian's variates for its
///            raw outputs, turned into factors.
/// A candidate's factors, and so the library and the attempt count, are
/// the serial loop's at every worker count.
class LibraryPipeline {
 public:
  LibraryPipeline(const RcNetwork& nominal, const DefectConfig& config,
                  unsigned workers)
      : config_(config),
        sigma_(config.sigma_pct / 100.0),
        npairs_(static_cast<std::size_t>(nominal.width()) *
                (nominal.width() - 1) / 2),
        rows_(nominal),
        engine_(config.seed),
        blocks_(std::min(workers, kMaxSlots)) {
    for (Block& b : blocks_) {
      b.raw.resize(kBlockOutputs);
      b.factors.resize(kBlockOutputs / 2);
    }
    defects_.reserve(config.count);
    finished_ = take_candidates();  // count 0 or max_attempts 0
  }

  void work() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Task task = Task::kNone;
      cv_.wait(lock, [&] {
        task = ready_task();
        return finished_ || task != Task::kNone;
      });
      if (finished_) return;
      if (task == Task::kConsume) {
        consuming_ = true;
        const Block& b = slot(consumed_);
        lock.unlock();
        bool done = true;
        try {
          done = consume(b);
        } catch (...) {
          error_ = std::current_exception();
        }
        lock.lock();
        consuming_ = false;
        ++consumed_;
        finished_ = finished_ || done;
      } else if (task == Task::kFill) {
        filling_ = true;
        Block& b = slot(filled_);
        lock.unlock();
        engine_.fill(b.raw.data(), b.raw.size());
        lock.lock();
        filling_ = false;
        b.replays_left = kTasksPerBlock;
        ++filled_;
      } else {
        Block& b = slot(replay_block_);
        const std::size_t t = replay_task_;
        if (++replay_task_ == kTasksPerBlock) {
          replay_task_ = 0;
          ++replay_block_;
        }
        lock.unlock();
        replay(b, t);
        lock.lock();
        if (--b.replays_left > 0) continue;  // nothing new to announce
      }
      cv_.notify_all();
    }
  }

  /// The accepted defects, once every worker has returned from work().
  std::vector<Defect> take_defects() {
    if (error_) std::rethrow_exception(error_);
    if (defects_.size() < config_.count)
      throw std::runtime_error(
          "DefectLibrary::generate: defect yield too low; raise sigma or "
          "lower cth_fF");
    return std::move(defects_);
  }
  std::size_t attempts() const { return attempts_; }

 private:
  struct Block {
    std::vector<std::uint64_t> raw;
    std::vector<double> factors;  // task t's at t * kTaskOutputs / 2
    std::array<std::size_t, kTasksPerBlock> produced{};
    std::size_t replays_left = 0;
  };

  enum class Task { kNone, kConsume, kFill, kReplay };

  /// The first ready task, in priority order (caller holds mu_).  The fill
  /// is the one serial chain, so it goes before the parallel replays.
  Task ready_task() {
    if (!consuming_ && consumed_ < filled_ &&
        slot(consumed_).replays_left == 0)
      return Task::kConsume;
    if (!filling_ && filled_ < consumed_ + blocks_.size()) return Task::kFill;
    if (replay_block_ < filled_) return Task::kReplay;
    return Task::kNone;
  }

  Block& slot(std::size_t block) { return blocks_[block % blocks_.size()]; }

  void replay(Block& b, std::size_t task) {
    const std::uint64_t* raw = b.raw.data() + task * kTaskOutputs;
    double* out = b.factors.data() + task * kTaskOutputs / 2;
    const std::size_t n =
        util::replay_gaussians(raw, raw + kTaskOutputs, sigma_, out);
    for (std::size_t k = 0; k < n; ++k) out[k] = std::max(0.0, 1.0 + out[k]);
    b.produced[task] = n;
  }

  /// Appends a replayed block to the candidate stream and takes what it
  /// completes; true once generation has finished.
  bool consume(const Block& b) {
    for (std::size_t t = 0; t < kTasksPerBlock; ++t) {
      const double* f = b.factors.data() + t * kTaskOutputs / 2;
      pending_.insert(pending_.end(), f, f + b.produced[t]);
    }
    return take_candidates();
  }

  /// Tests whole candidates of the stream in index order, exactly as the
  /// serial loop did: each one counts as an attempt, and one past
  /// `max_attempts` is never drawn.  True once generation has finished.
  bool take_candidates() {
    std::size_t pos = 0;
    bool finished = true;
    while (defects_.size() < config_.count &&
           attempts_ < config_.max_attempts) {
      if (pending_.size() - pos < npairs_) {
        finished = false;
        break;
      }
      ++attempts_;
      const double* f = pending_.data() + pos;
      pos += npairs_;
      // Some wire above Cth is the same decision as the paper's maximum
      // net coupling above Cth.
      if (rows_.any_exceeds(f, config_.cth_fF))
        defects_.emplace_back(rows_.width(),
                              std::vector<double>(f, f + npairs_));
    }
    pending_.erase(pending_.begin(), pending_.begin() + pos);
    return finished;
  }

  const DefectConfig& config_;
  const double sigma_;
  const std::size_t npairs_;
  const CouplingRows rows_;

  // Owned by the consume step (one at a time, in block order).
  std::vector<double> pending_;  // factors of the next, incomplete candidate
  std::vector<Defect> defects_;
  std::size_t attempts_ = 0;
  std::exception_ptr error_;

  // Owned by the fill step (one at a time, in block order).
  util::Mt64 engine_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Block> blocks_;  // block b lives in blocks_[b % size]
  std::size_t filled_ = 0;     // blocks [0, filled_) hold raw outputs
  std::size_t consumed_ = 0;   // blocks [0, consumed_) are consumed
  std::size_t replay_block_ = 0, replay_task_ = 0;  // next replay task
  bool filling_ = false;
  bool consuming_ = false;
  bool finished_ = false;
};

}  // namespace

DefectLibrary DefectLibrary::generate(const RcNetwork& nominal,
                                      const DefectConfig& config,
                                      const util::ParallelConfig& parallel) {
  if (config.cth_fF <= 0.0)
    throw std::invalid_argument("DefectConfig::cth_fF must be positive");
  const unsigned workers = parallel.resolve(config.count);
  LibraryPipeline pipeline(nominal, config, workers);
  util::parallel_for_chunks(
      workers, parallel,
      [&](std::size_t, std::size_t, unsigned) { pipeline.work(); });
  std::vector<Defect> defects = pipeline.take_defects();
  return DefectLibrary(config, std::move(defects), pipeline.attempts());
}

DefectLibrary DefectLibrary::from_defects(const DefectConfig& config,
                                          std::vector<Defect> defects) {
  DefectConfig c = config;
  c.count = defects.size();
  const std::size_t attempts = defects.size();
  return DefectLibrary(c, std::move(defects), attempts);
}

std::vector<std::size_t> DefectLibrary::defective_wire_histogram(
    const RcNetwork& nominal) const {
  std::vector<std::size_t> hist(nominal.width(), 0);
  for (const Defect& d : defects_)
    for (unsigned w : d.defective_wires(nominal, config_.cth_fF)) ++hist[w];
  return hist;
}

}  // namespace xtest::xtalk

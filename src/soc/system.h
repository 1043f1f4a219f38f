// The CPU-memory system of Section 4, with crosstalk-aware buses.
//
// Wires together: the PARWAN-style core, the 4K memory, optional
// memory-mapped peripheral cores, a 12-bit unidirectional address bus, an
// 8-bit bidirectional data bus, and the 3-wire RD/WR/CS control bus (the
// paper's deferred "future study").  Every bus transaction runs through
// the high-level crosstalk error model against the bus's current RC
// network; injecting a defect is replacing a network with its perturbed
// version.
//
// Forced-MAF injection (ideal single-fault behaviour, used to verify that
// a generated test actually observes its target fault) corrupts a transfer
// exactly when the transition fully excites the forced fault -- the MA
// pair is the unique such transition.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "cpu/cpu.h"
#include "cpu/memory_image.h"
#include "cpu/microcode.h"
#include "soc/bus.h"
#include "soc/control.h"
#include "soc/memory.h"
#include "soc/mmio.h"
#include "soc/trace.h"
#include "xtalk/defect.h"
#include "xtalk/electrical.h"
#include "xtalk/error_model.h"
#include "xtalk/maf.h"
#include "xtalk/rc_network.h"

namespace xtest::soc {

struct SystemConfig {
  xtalk::BusGeometry address_geometry{.width = cpu::kAddrBits};
  xtalk::BusGeometry data_geometry{.width = cpu::kDataBits};
  xtalk::BusGeometry control_geometry{.width = kControlBits};
  /// Cth = ratio * max nominal net coupling; calibrates the error-model
  /// thresholds and is the defect-library acceptance threshold.
  double cth_ratio = 1.6;
  /// Clock-period multiplier relative to the rated (at-speed) clock.
  /// 1.0 = normal operational speed; larger values model a slow external
  /// tester clocking the system below speed: the sampling slack grows
  /// proportionally and marginal delay defects stop being observable --
  /// the paper's core argument for at-speed self-test (Section 1).
  double clock_period_scale = 1.0;
  /// Hot-path controls.  Both paths produce bit-identical received words
  /// (tests/test_fastpath.cpp); `false` selects the reference evaluation
  /// for equivalence testing.
  bool fast_receive = true;      ///< precomputed per-defect BusEvaluator
  bool transition_cache = true;  ///< memoize (held, driven) per defect
  /// Execution tier (cpu/microcode.h).  The reference interpreter is the
  /// only one; the field keeps the `system.exec_tier` key round-tripping.
  cpu::ExecTier exec_tier = cpu::ExecTier::kReference;
  /// Electrical backend of every bus receiver (xtalk/electrical.h).  The
  /// default full-swing backend reproduces the paper's calibration
  /// bit-for-bit; low-swing recalibrates the thresholds for a reduced
  /// swing with a level restorer.
  xtalk::ElectricalConfig electrical;

  bool operator==(const SystemConfig&) const = default;
};

/// Transition-cache counters summed over a system's three buses.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

struct RunResult {
  std::uint64_t cycles = 0;
  bool halted = false;
  cpu::HaltReason reason = cpu::HaltReason::kRunning;
};

/// Ideal single-MAF fault for test verification.
struct ForcedMaf {
  soc::BusKind bus;
  xtalk::MafFault fault;
};

/// Complete architectural snapshot of a suspended program: CPU registers,
/// the 4K memory, and the held word of each tri-state bus.  restore_slice
/// reinstates all of it, so execution resumed from a SliceState forms
/// exactly the bus transitions the uninterrupted run would have formed --
/// the invariant the slice property tests pin down.
struct SliceState {
  cpu::CpuState cpu;
  std::array<std::uint8_t, cpu::kMemWords> memory{};
  util::BusWord addr_held = util::BusWord::zeros(cpu::kAddrBits);
  util::BusWord data_held = util::BusWord::zeros(cpu::kDataBits);
  util::BusWord ctrl_held = util::BusWord::zeros(kControlBits);
};

/// What a gold (defect-free) run records so that a defect simulation can
/// start at its first diverging transfer (System::run_recording and
/// System::first_divergence, DESIGN.md D17): every transfer on one bus,
/// the machine state before every instruction, and the memory writes.
/// Until a transfer on the recorded bus receives a different word than
/// gold's, a machine whose other buses are nominal *is* the gold machine.
struct GoldTrace {
  /// One transfer on the recorded bus (words as packed bits).
  struct Transfer {
    std::uint64_t held = 0;      ///< word on the wires before the transfer
    std::uint64_t driven = 0;
    std::uint64_t received = 0;  ///< what gold's receiver sampled
    xtalk::BusDirection direction = xtalk::BusDirection::kCpuToCore;
    std::uint32_t instruction = 0;  ///< index into `boundaries`
  };
  /// The machine before one instruction.
  struct Boundary {
    cpu::CpuState cpu;
    util::BusWord addr_held;
    util::BusWord data_held;
    util::BusWord ctrl_held;
    std::size_t writes = 0;  ///< gold memory writes before it
  };
  struct Write {
    cpu::Addr addr = 0;
    std::uint8_t value = 0;
  };

  BusKind bus = BusKind::kAddress;
  std::array<std::uint8_t, cpu::kMemWords> memory{};  ///< before boundary 0
  std::vector<Transfer> transfers;
  std::vector<Boundary> boundaries;
  std::vector<Write> writes;

  /// The gold machine at boundary `k`: the start memory plus the writes
  /// made before it, the CPU state and the three held words.
  SliceState state_at(std::size_t k) const;
};

class System : public cpu::BusPort {
 public:
  explicit System(const SystemConfig& config = {});

  // --- configuration -----------------------------------------------------
  const xtalk::RcNetwork& nominal_address_network() const {
    return nominal_addr_net_;
  }
  const xtalk::RcNetwork& nominal_data_network() const {
    return nominal_data_net_;
  }
  const xtalk::RcNetwork& nominal_control_network() const {
    return nominal_ctrl_net_;
  }
  double address_cth() const { return addr_cth_; }
  double data_cth() const { return data_cth_; }
  double control_cth() const { return ctrl_cth_; }
  const xtalk::CrosstalkErrorModel& address_model() const {
    return addr_model_;
  }
  const xtalk::CrosstalkErrorModel& data_model() const { return data_model_; }
  const xtalk::CrosstalkErrorModel& control_model() const {
    return ctrl_model_;
  }

  /// Defect injection: replace a bus's RC network (pass the defect-applied
  /// network).  Rebuilds the bus's fast evaluator in place and invalidates
  /// its transition cache.  `clear_defects` restores all nominals.
  void set_address_network(xtalk::RcNetwork net);
  void set_data_network(xtalk::RcNetwork net);
  void set_control_network(xtalk::RcNetwork net);

  /// Installs `defect` on `bus`: the same network as
  /// set_*_network(defect.apply(nominal)), built in the bus's own buffers,
  /// so the per-defect swap of a campaign allocates nothing.  Throws
  /// std::invalid_argument on a width mismatch, leaving the bus as it was.
  void apply_defect(BusKind bus, const xtalk::Defect& defect);

  /// Restores the nominal network and evaluator of every bus a defect
  /// replaced (the others are already nominal) and invalidates all three
  /// transition caches.
  void clear_defects();

  /// Forcing (or clearing) an ideal MAF invalidates the transition caches:
  /// cached entries hold the *model* result, and belt-and-suspenders
  /// invalidation keeps every cached word derivable from current state.
  void set_forced_maf(std::optional<ForcedMaf> f);

  /// Transition-cache hits/misses accumulated over all three buses since
  /// construction (0/0 when the cache is disabled).
  CacheCounters transition_cache_counters() const;

  /// Attach a peripheral core at [base, base+size).  The window shadows
  /// memory for CPU accesses.
  void attach_mmio(cpu::Addr base, cpu::Addr size, MmioDevice* device);

  /// Detaches every MMIO window (the interleaved scheduler swaps windows
  /// between the functional and the test context).
  void clear_mmio() { mmio_.clear(); }

  void set_trace(BusTrace* trace) { trace_ = trace; }

  // --- slicing -------------------------------------------------------------

  /// Captures the architectural state of the (suspended) program: CPU
  /// registers, memory and bus held words.
  SliceState save_slice() const;

  /// Reinstates a captured state.  Execution continued with run() is
  /// bitwise-identical to the run that never stopped: the defect channels,
  /// caches, and counters are deliberately NOT part of the state -- they
  /// belong to the simulator, not to the suspended program.
  void restore_slice(const SliceState& state);

  // --- operation ----------------------------------------------------------
  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }
  cpu::Cpu& processor() { return cpu_; }
  const cpu::Cpu& processor() const { return cpu_; }

  /// Tester action: load a program image and reset into it.
  void load_and_reset(const cpu::MemoryImage& image, cpu::Addr entry);

  /// Runs until HLT/illegal or the cycle cap.  At-speed self-test phase.
  ///
  /// Stops exactly where stepping Cpu::run(max_cycles) stops, in the same
  /// state, but fast-forwards a provable loop (DESIGN.md D17): Brent's
  /// cycle detection compares, once per instruction, the PC, ACC, flags,
  /// the three held words and the memory version.  An equal key means the
  /// machine is periodic -- defect channels and a forced MAF do not change
  /// during a run, the transition cache only memoizes -- so whole periods
  /// are skipped while the landing boundary stays <= the cap, and the rest
  /// is stepped.  Never skips while an MMIO window is attached (peripheral
  /// state is outside the key) or a BusTrace is set (it sees every event).
  RunResult run(std::uint64_t max_cycles);

  /// The gold run: run(), stepped, recording into `trace` the transfers
  /// on `bus`, every instruction boundary and every memory write (see
  /// GoldTrace).  For off-line programs: no MMIO window may be attached.
  RunResult run_recording(std::uint64_t max_cycles, BusKind bus,
                          GoldTrace& trace);

  /// Evaluates every transfer of `trace` on its bus, in order, through the
  /// receive path bus cycles take (fast or reference model, cache, forced
  /// MAF) under the current channels.  Returns the index of the boundary
  /// of the instruction holding the first transfer whose received word
  /// differs from gold's, or nullopt when none does (the run is gold's).
  std::optional<std::size_t> first_divergence(const GoldTrace& trace);

  /// Cycles fast-forwarded by run()'s loop skip since construction.
  std::uint64_t loop_cycles_skipped() const { return loop_cycles_skipped_; }

  // --- cpu::BusPort -------------------------------------------------------
  std::uint8_t read(cpu::Addr addr) override;
  void write(cpu::Addr addr, std::uint8_t data) override;
  void internal_cycle() override;

 private:
  struct MmioWindow {
    cpu::Addr base;
    cpu::Addr size;
    MmioDevice* device;
  };

  /// Address-bus transfer (CPU drives); returns address memory receives.
  cpu::Addr send_address(cpu::Addr addr);
  /// Data-bus transfer; returns the byte the receiver samples.
  std::uint8_t send_data(std::uint8_t byte, xtalk::BusDirection direction);
  /// Control-bus transfer (CPU drives); returns the word memory receives.
  ControlView send_control(bool write);

  /// One bus's active evaluation state: the defect-applied network, its
  /// precomputed fast evaluator, and the per-defect transition memo (empty
  /// when the transition cache is off).  `defective` marks a channel
  /// clear_defects must restore.
  struct BusChannel {
    xtalk::RcNetwork net;
    xtalk::BusEvaluator eval;
    xtalk::TransitionCache cache;
    bool defective = false;
  };

  /// One bus transfer: receive() on the bus's held word, then the held
  /// word becomes the driven one; recorded and traced when asked.
  util::BusWord apply_bus(TristateBus& bus, BusChannel& channel,
                          const xtalk::CrosstalkErrorModel& model,
                          util::BusWord driven, xtalk::BusDirection direction);

  /// The word the receiver samples for the transition (held, driven): the
  /// one receive path of both apply_bus and first_divergence.  Pure but
  /// for the transition cache's memo.
  util::BusWord receive(BusChannel& channel,
                        const xtalk::CrosstalkErrorModel& model, BusKind kind,
                        util::BusWord held, util::BusWord driven,
                        xtalk::BusDirection direction);

  /// Re-derives the channel's evaluator from its (new) network.
  static void rebuild(BusChannel& channel,
                      const xtalk::CrosstalkErrorModel& model);
  static void restore(BusChannel& channel, const xtalk::RcNetwork& nominal,
                      const xtalk::BusEvaluator& nominal_eval);

  std::uint8_t core_read(cpu::Addr addr);
  void core_write(cpu::Addr addr, std::uint8_t data);
  MmioWindow* window_at(cpu::Addr addr);

  xtalk::RcNetwork nominal_addr_net_;
  xtalk::RcNetwork nominal_data_net_;
  xtalk::RcNetwork nominal_ctrl_net_;
  double addr_cth_;
  double data_cth_;
  double ctrl_cth_;
  xtalk::CrosstalkErrorModel addr_model_;
  xtalk::CrosstalkErrorModel data_model_;
  xtalk::CrosstalkErrorModel ctrl_model_;
  bool fast_receive_;
  // Nominal evaluators, prebuilt so clear_defects (once per defect in a
  // campaign) restores them by copy, into the channel's buffers, instead
  // of re-deriving rows.
  xtalk::BusEvaluator nominal_addr_eval_;
  xtalk::BusEvaluator nominal_data_eval_;
  xtalk::BusEvaluator nominal_ctrl_eval_;
  BusChannel addr_;  // active (possibly defect-applied)
  BusChannel data_;
  BusChannel ctrl_;

  TristateBus addr_bus_{BusKind::kAddress, cpu::kAddrBits};
  TristateBus data_bus_{BusKind::kData, cpu::kDataBits};
  TristateBus ctrl_bus_{BusKind::kControl, kControlBits};
  Memory memory_;
  std::vector<MmioWindow> mmio_;
  cpu::Cpu cpu_{*this};
  BusTrace* trace_ = nullptr;
  GoldTrace* recording_ = nullptr;  // set during run_recording only
  std::optional<ForcedMaf> forced_;
  std::uint64_t loop_cycles_skipped_ = 0;
};

}  // namespace xtest::soc

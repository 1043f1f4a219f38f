#include "soc/system.h"

namespace xtest::soc {

namespace {

/// Backend-calibrated thresholds with the sampling slack stretched by the
/// clock scale (a slower clock tolerates proportionally slower
/// transitions).
xtalk::ErrorModelConfig scaled_calibration(
    const xtalk::ElectricalConfig& electrical, const xtalk::RcNetwork& nominal,
    double cth, double clock_scale) {
  xtalk::ErrorModelConfig cfg =
      xtalk::calibrate_electrical(electrical, nominal, cth);
  cfg.delay_slack_ns *= clock_scale;
  return cfg;
}

xtalk::TransitionCache make_cache(bool enabled, unsigned width) {
  if (!enabled || !xtalk::TransitionCache::cacheable(width))
    return xtalk::TransitionCache{};
  return xtalk::TransitionCache{width};
}

}  // namespace

System::System(const SystemConfig& config)
    : nominal_addr_net_(config.address_geometry),
      nominal_data_net_(config.data_geometry),
      nominal_ctrl_net_(config.control_geometry),
      addr_cth_(xtalk::recommended_cth(nominal_addr_net_, config.cth_ratio)),
      data_cth_(xtalk::recommended_cth(nominal_data_net_, config.cth_ratio)),
      ctrl_cth_(xtalk::recommended_cth(nominal_ctrl_net_, config.cth_ratio)),
      addr_model_(scaled_calibration(config.electrical, nominal_addr_net_,
                                     addr_cth_, config.clock_period_scale)),
      data_model_(scaled_calibration(config.electrical, nominal_data_net_,
                                     data_cth_, config.clock_period_scale)),
      ctrl_model_(scaled_calibration(config.electrical, nominal_ctrl_net_,
                                     ctrl_cth_, config.clock_period_scale)),
      fast_receive_(config.fast_receive),
      nominal_addr_eval_(nominal_addr_net_, addr_model_.config()),
      nominal_data_eval_(nominal_data_net_, data_model_.config()),
      nominal_ctrl_eval_(nominal_ctrl_net_, ctrl_model_.config()),
      addr_{nominal_addr_net_, nominal_addr_eval_,
            make_cache(config.transition_cache, nominal_addr_net_.width())},
      data_{nominal_data_net_, nominal_data_eval_,
            make_cache(config.transition_cache, nominal_data_net_.width())},
      ctrl_{nominal_ctrl_net_, nominal_ctrl_eval_,
            make_cache(config.transition_cache, nominal_ctrl_net_.width())} {}

void System::rebuild(BusChannel& channel,
                     const xtalk::CrosstalkErrorModel& model) {
  channel.eval.rebuild(channel.net, model.config());
  channel.cache.invalidate();
  channel.defective = true;
}

void System::restore(BusChannel& channel, const xtalk::RcNetwork& nominal,
                     const xtalk::BusEvaluator& nominal_eval) {
  if (channel.defective) {
    channel.net = nominal;
    channel.eval = nominal_eval;
    channel.defective = false;
  }
  channel.cache.invalidate();
}

void System::set_address_network(xtalk::RcNetwork net) {
  addr_.net = std::move(net);
  rebuild(addr_, addr_model_);
}

void System::set_data_network(xtalk::RcNetwork net) {
  data_.net = std::move(net);
  rebuild(data_, data_model_);
}

void System::set_control_network(xtalk::RcNetwork net) {
  ctrl_.net = std::move(net);
  rebuild(ctrl_, ctrl_model_);
}

void System::apply_defect(BusKind bus, const xtalk::Defect& defect) {
  switch (bus) {
    case BusKind::kAddress:
      defect.apply(nominal_addr_net_, addr_.net);
      return rebuild(addr_, addr_model_);
    case BusKind::kData:
      defect.apply(nominal_data_net_, data_.net);
      return rebuild(data_, data_model_);
    case BusKind::kControl:
      defect.apply(nominal_ctrl_net_, ctrl_.net);
      return rebuild(ctrl_, ctrl_model_);
  }
}

void System::clear_defects() {
  restore(addr_, nominal_addr_net_, nominal_addr_eval_);
  restore(data_, nominal_data_net_, nominal_data_eval_);
  restore(ctrl_, nominal_ctrl_net_, nominal_ctrl_eval_);
}

void System::set_forced_maf(std::optional<ForcedMaf> f) {
  forced_ = f;
  for (BusChannel* ch : {&addr_, &data_, &ctrl_}) ch->cache.invalidate();
}

CacheCounters System::transition_cache_counters() const {
  CacheCounters c;
  for (const BusChannel* ch : {&addr_, &data_, &ctrl_}) {
    c.hits += ch->cache.hits();
    c.misses += ch->cache.misses();
  }
  return c;
}

void System::attach_mmio(cpu::Addr base, cpu::Addr size, MmioDevice* device) {
  mmio_.push_back({base, size, device});
}

void System::load_and_reset(const cpu::MemoryImage& image, cpu::Addr entry) {
  memory_.load(image);
  addr_bus_.reset();
  data_bus_.reset();
  ctrl_bus_.reset();
  cpu_.reset(entry);
}

SliceState System::save_slice() const {
  SliceState s;
  s.cpu = cpu_.state();
  s.memory = memory_.raw();
  s.addr_held = addr_bus_.held();
  s.data_held = data_bus_.held();
  s.ctrl_held = ctrl_bus_.held();
  return s;
}

void System::restore_slice(const SliceState& state) {
  memory_.restore_raw(state.memory);
  addr_bus_.restore_held(state.addr_held);
  data_bus_.restore_held(state.data_held);
  ctrl_bus_.restore_held(state.ctrl_held);
  cpu_.restore(state.cpu);
}

SliceState GoldTrace::state_at(std::size_t k) const {
  const Boundary& b = boundaries.at(k);
  SliceState s;
  s.cpu = b.cpu;
  s.memory = memory;
  for (std::size_t i = 0; i < b.writes; ++i)
    s.memory[writes[i].addr & cpu::kAddrMask] = writes[i].value;
  s.addr_held = b.addr_held;
  s.data_held = b.data_held;
  s.ctrl_held = b.ctrl_held;
  return s;
}

namespace {

/// Everything the next instruction's behaviour depends on, besides what
/// is static during a run (channels, forced MAF): PC, ACC, flags, the held
/// words and the memory version.  Bus widths are 12/8/3, so the packing is
/// exact.
struct LoopKey {
  std::uint64_t cpu = 0;
  std::uint64_t held = 0;
  std::uint64_t memory = 0;

  bool operator==(const LoopKey&) const = default;
};

}  // namespace

RunResult System::run(std::uint64_t max_cycles) {
  if (trace_ == nullptr && mmio_.empty()) {
    const auto key = [this] {
      return LoopKey{
          cpu_.pc() | std::uint64_t{cpu_.acc()} << 16 |
              std::uint64_t{cpu_.flags().mask()} << 24,
          addr_bus_.held().bits() | data_bus_.held().bits() << 16 |
              ctrl_bus_.held().bits() << 32,
          memory_.version()};
    };
    // Brent: the tortoise jumps to the hare at every power of two, so a
    // loop of period p entered after m instructions is found within
    // O(m + p) instructions at one key compare each.
    LoopKey tortoise = key();
    std::uint64_t tortoise_cycles = cpu_.cycles();
    std::uint64_t power = 1;
    std::uint64_t lambda = 0;
    while (!cpu_.halted() && cpu_.cycles() < max_cycles) {
      cpu_.step();
      const LoopKey hare = key();
      if (hare == tortoise && !cpu_.halted()) {
        // The state repeats every `period` cycles from here on: land on
        // the last repetition at or below the cap (the stepped run passes
        // it, or stops on it), then step the remainder below.
        const std::uint64_t period = cpu_.cycles() - tortoise_cycles;
        if (cpu_.cycles() < max_cycles) {
          const std::uint64_t skipped =
              (max_cycles - cpu_.cycles()) / period * period;
          cpu::CpuState state = cpu_.state();
          state.cycles += skipped;
          cpu_.restore(state);
          loop_cycles_skipped_ += skipped;
        }
        break;
      }
      if (++lambda == power) {
        tortoise = hare;
        tortoise_cycles = cpu_.cycles();
        power *= 2;
        lambda = 0;
      }
    }
  }
  cpu_.run(max_cycles);
  return {cpu_.cycles(), cpu_.halted(), cpu_.halt_reason()};
}

RunResult System::run_recording(std::uint64_t max_cycles, BusKind bus,
                                GoldTrace& trace) {
  trace.bus = bus;
  trace.memory = memory_.raw();
  trace.transfers.clear();
  trace.boundaries.clear();
  trace.writes.clear();
  recording_ = &trace;
  while (!cpu_.halted() && cpu_.cycles() < max_cycles) {
    trace.boundaries.push_back({cpu_.state(), addr_bus_.held(),
                                data_bus_.held(), ctrl_bus_.held(),
                                trace.writes.size()});
    cpu_.step();
  }
  recording_ = nullptr;
  return {cpu_.cycles(), cpu_.halted(), cpu_.halt_reason()};
}

std::optional<std::size_t> System::first_divergence(const GoldTrace& trace) {
  BusChannel& channel = trace.bus == BusKind::kAddress ? addr_
                        : trace.bus == BusKind::kData  ? data_
                                                       : ctrl_;
  const xtalk::CrosstalkErrorModel& model =
      trace.bus == BusKind::kAddress ? addr_model_
      : trace.bus == BusKind::kData  ? data_model_
                                     : ctrl_model_;
  const unsigned width = channel.net.width();
  for (const GoldTrace::Transfer& t : trace.transfers) {
    const util::BusWord received =
        receive(channel, model, trace.bus, util::BusWord(width, t.held),
                util::BusWord(width, t.driven), t.direction);
    if (received.bits() != t.received) return t.instruction;
  }
  return std::nullopt;
}

util::BusWord System::receive(BusChannel& channel,
                              const xtalk::CrosstalkErrorModel& model,
                              BusKind kind, util::BusWord held,
                              util::BusWord driven,
                              xtalk::BusDirection direction) {
  util::BusWord received =
      fast_receive_
          ? TristateBus::receive(held, driven, &channel.eval, &channel.cache)
          : TristateBus::receive(held, driven, &channel.net, &model);
  if (forced_ && forced_->bus == kind &&
      forced_->fault.direction == direction) {
    const xtalk::VectorPair pair{held, driven};
    if (xtalk::fully_excites(forced_->fault, pair))
      received = xtalk::faulty_v2(forced_->fault, pair);
  }
  return received;
}

util::BusWord System::apply_bus(TristateBus& bus, BusChannel& channel,
                                const xtalk::CrosstalkErrorModel& model,
                                util::BusWord driven,
                                xtalk::BusDirection direction) {
  const util::BusWord held = bus.held();
  const util::BusWord received =
      receive(channel, model, bus.kind(), held, driven, direction);
  bus.restore_held(driven);
  if (recording_ != nullptr && bus.kind() == recording_->bus) {
    recording_->transfers.push_back(
        {held.bits(), driven.bits(), received.bits(), direction,
         static_cast<std::uint32_t>(recording_->boundaries.size() - 1)});
  }
  if (trace_ != nullptr) {
    trace_->record(BusEvent{cpu_.cycles(), bus.kind(), direction, driven,
                            received, received != driven});
  }
  return received;
}

cpu::Addr System::send_address(cpu::Addr addr) {
  const util::BusWord received =
      apply_bus(addr_bus_, addr_, addr_model_,
                util::BusWord(cpu::kAddrBits, addr),
                xtalk::BusDirection::kCpuToCore);
  return static_cast<cpu::Addr>(received.bits());
}

std::uint8_t System::send_data(std::uint8_t byte,
                               xtalk::BusDirection direction) {
  const util::BusWord received =
      apply_bus(data_bus_, data_, data_model_,
                util::BusWord(cpu::kDataBits, byte), direction);
  return static_cast<std::uint8_t>(received.bits());
}

ControlView System::send_control(bool write) {
  const util::BusWord received =
      apply_bus(ctrl_bus_, ctrl_, ctrl_model_, control_word(write),
                xtalk::BusDirection::kCpuToCore);
  return ControlView(received);
}

System::MmioWindow* System::window_at(cpu::Addr addr) {
  for (auto& w : mmio_)
    if (addr >= w.base && addr < static_cast<cpu::Addr>(w.base + w.size))
      return &w;
  return nullptr;
}

std::uint8_t System::core_read(cpu::Addr addr) {
  if (MmioWindow* w = window_at(addr))
    return w->device->read(static_cast<cpu::Addr>(addr - w->base));
  return memory_.read(addr);
}

void System::core_write(cpu::Addr addr, std::uint8_t data) {
  if (MmioWindow* w = window_at(addr)) {
    w->device->write(static_cast<cpu::Addr>(addr - w->base), data);
    return;
  }
  if (recording_ != nullptr) recording_->writes.push_back({addr, data});
  memory_.write(addr, data);
}

std::uint8_t System::read(cpu::Addr addr) {
  // CPU drives the address and control buses; the addressed core sees the
  // (possibly corrupted) words and answers on the data bus.
  const cpu::Addr seen = send_address(addr);
  const ControlView ctrl = send_control(/*write=*/false);
  if (!ctrl.cs) {
    // No core selected: nothing drives the data bus; the CPU samples the
    // held (floating) word.
    return static_cast<std::uint8_t>(data_bus_.held().bits());
  }
  if (ctrl.wr) {
    // Spurious write: a WR glitch during a read captures whatever the
    // floating data bus holds -- destructive.
    core_write(seen, static_cast<std::uint8_t>(data_bus_.held().bits()));
  }
  if (!ctrl.rd) {
    // Dropped read strobe: the core never drives; floating value sampled.
    return static_cast<std::uint8_t>(data_bus_.held().bits());
  }
  const std::uint8_t byte = core_read(seen);
  return send_data(byte, xtalk::BusDirection::kCoreToCpu);
}

void System::write(cpu::Addr addr, std::uint8_t data) {
  const cpu::Addr seen = send_address(addr);
  const ControlView ctrl = send_control(/*write=*/true);
  // The CPU drives the data bus regardless of what the core received.
  const std::uint8_t byte = send_data(data, xtalk::BusDirection::kCpuToCore);
  // A dropped WR (or CS) loses the store; a spurious RD during a write is
  // a transient bus contention with no architectural effect here.
  if (ctrl.cs && ctrl.wr) core_write(seen, byte);
}

void System::internal_cycle() {
  // Buses hold their last driven values; nothing to evaluate.
}

}  // namespace xtest::soc

// Execution-tier names for the PARWAN core.
//
// The reference interpreter (Cpu::step) is the only executor of
// soc::System::run (DESIGN.md D13).  The tier survives as a name so the
// `--exec-tier` flag, the `system.exec_tier` scenario key and persisted
// scenarios that spell an older tier keep working.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace xtest::cpu {

/// Which executor drives System::run: the per-cycle fetch/decode
/// interpreter.  Every bus transaction routes through
/// TristateBus::transfer, so this is also the semantic oracle.
enum class ExecTier : std::uint8_t { kReference };

/// Scenario/CLI spelling: "reference".
std::string to_string(ExecTier tier);

/// Parses a tier name; nullopt for unknown spellings.  "decoded" and
/// "jit", the names of removed accelerated tiers, parse as the reference
/// interpreter: the tier never affected verdicts or checkpoint keys, so
/// scenarios and queued jobs that name them run unchanged.
std::optional<ExecTier> parse_exec_tier(const std::string& name);

}  // namespace xtest::cpu

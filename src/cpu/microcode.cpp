#include "cpu/microcode.h"

namespace xtest::cpu {

std::string to_string(ExecTier) { return "reference"; }

std::optional<ExecTier> parse_exec_tier(const std::string& name) {
  if (name == "reference" || name == "decoded" || name == "jit")
    return ExecTier::kReference;
  return std::nullopt;
}

}  // namespace xtest::cpu

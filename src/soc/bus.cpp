#include "soc/bus.h"

#include <cassert>

namespace xtest::soc {

std::string to_string(BusKind k) {
  switch (k) {
    case BusKind::kAddress: return "addr";
    case BusKind::kData: return "data";
    case BusKind::kControl: return "ctrl";
  }
  return "?";
}

util::BusWord TristateBus::receive(util::BusWord held, util::BusWord word,
                                   const xtalk::RcNetwork* net,
                                   const xtalk::CrosstalkErrorModel* model) {
  assert(word.width() == held.width());
  if (net == nullptr || model == nullptr) return word;
  return model->receive(*net, xtalk::VectorPair{held, word});
}

}  // namespace xtest::soc

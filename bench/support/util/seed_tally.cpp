#include "util/seed_tally.hpp"

namespace ssmst {

void SeedTally::add(SeedOutcome o) {
  switch (o) {
    case SeedOutcome::kDetected:
      break;
    case SeedOutcome::kFalseAlarm:
      ++false_alarms;
      break;
    case SeedOutcome::kMissed:
      ++misses;
      break;
    case SeedOutcome::kNoPiece:
      ++skips;
      break;
  }
}

SeedTally& SeedTally::operator+=(const SeedTally& o) {
  false_alarms += o.false_alarms;
  misses += o.misses;
  skips += o.skips;
  return *this;
}

std::vector<std::string> SeedTally::cells() const {
  return {std::to_string(false_alarms), std::to_string(misses),
          std::to_string(skips)};
}

}  // namespace ssmst

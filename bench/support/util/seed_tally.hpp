#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ssmst {

/// How one seed of a detection sweep (E2, E3) ended.
enum class SeedOutcome {
  kDetected,    ///< the tampered piece was detected within the budget
  kFalseAlarm,  ///< an alarm on the correct instance, before any fault
  kMissed,      ///< no alarm within the detection budget
  kNoPiece,     ///< no load-bearing piece to tamper: the seed is skipped
};

/// Outcome counts of one sweep cell. The drivers print them next to the
/// cell's detection value, which only detected seeds feed: a cell without
/// one prints "-" and records no value. False alarms and misses fail the
/// driver's run; skips do not.
struct SeedTally {
  std::size_t false_alarms = 0;
  std::size_t misses = 0;
  std::size_t skips = 0;

  void add(SeedOutcome o);
  SeedTally& operator+=(const SeedTally& o);
  bool failed() const { return false_alarms > 0 || misses > 0; }
  /// Table cells for the "false alarms", "missed" and "skipped" columns.
  std::vector<std::string> cells() const;
};

}  // namespace ssmst

#include "labels/verify1.hpp"

namespace ssmst {

const char* describe(LabelViolation code) {
  static constexpr const char* kText[] = {
#define SSMST_VIOLATION_TEXT(name, text) text,
      SSMST_LABEL_VIOLATIONS(SSMST_VIOLATION_TEXT)
#undef SSMST_VIOLATION_TEXT
  };
  return kText[static_cast<std::size_t>(code)];
}

}  // namespace ssmst

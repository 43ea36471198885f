#include "src/obs/trace_analyzer.h"

namespace emeralds {
namespace obs {

const char* InvariantKindToString(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kNonMonotoneTime:
      return "non_monotone_time";
    case InvariantKind::kSwitchPairing:
      return "switch_pairing";
    case InvariantKind::kBlockedThreadRan:
      return "blocked_thread_ran";
    case InvariantKind::kCompleteWithoutRelease:
      return "complete_without_release";
    case InvariantKind::kJobNumberRegression:
      return "job_number_regression";
  }
  return "?";
}

}  // namespace obs
}  // namespace emeralds

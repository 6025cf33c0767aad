// Strict parsing of integer environment knobs.
#pragma once

#include <climits>

namespace xlv::util {

/// `fallback` when the variable is unset or empty; otherwise its value,
/// which must be a whole decimal integer in [lo, hi]. Anything else throws
/// std::invalid_argument naming the variable and the offending value: a
/// typo stops the run, it never silently runs with a default.
long envLongStrict(const char* name, long fallback, long lo = LONG_MIN, long hi = LONG_MAX);

}  // namespace xlv::util

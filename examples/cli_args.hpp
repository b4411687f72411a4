#pragma once
// Strict numeric flag values for the example tools. The whole argument must
// be one number in range; anything else is rejected the way an unknown
// option is: one stderr line naming the flag, exit 2 -- never an abort, a
// wrapped value or a silently truncated one ("4x" is not 4).

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

namespace cli {

[[noreturn]] inline void bad_value(const char* flag, const char* text, const std::string& why) {
    std::cerr << "error: bad value '" << text << "' for " << flag << ": " << why << "\n";
    std::exit(2);
}

/// The whole of `text` as one base-10 integer in [lo, hi].
inline long long int_value(const char* flag, const char* text, long long lo = INT_MIN,
                           long long hi = INT_MAX) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || std::isspace(static_cast<unsigned char>(*text)) != 0) {
        bad_value(flag, text, "not an integer");
    }
    if (errno == ERANGE || v < lo || v > hi) {
        bad_value(flag, text,
                  "out of range [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return v;
}

/// The whole of `text` as one finite number.
inline double number_value(const char* flag, const char* text) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || std::isspace(static_cast<unsigned char>(*text)) != 0 ||
        errno == ERANGE || !std::isfinite(v)) {
        bad_value(flag, text, "not a finite number");
    }
    return v;
}

}  // namespace cli

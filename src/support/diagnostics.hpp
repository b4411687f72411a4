#pragma once
// Error-reporting primitives. The library throws `lf::Error` for invalid
// inputs (illegal graphs, malformed programs) so callers can distinguish
// "the algorithm reports infeasible" (a normal result) from "the input
// violates the model" (an exception).

#include <concepts>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace lf {

/// Exception type for all model violations detected by this library.
class Error : public std::runtime_error {
  public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// `check` sits on hot paths (every array access, every parser token), so a
// passing check must cost one branch: its message is a literal, or a
// callable that builds the message only once the check has failed. The
// overload taking a pre-built std::string is deleted, so no call site can
// build its message eagerly.

/// Throws lf::Error(message) when `condition` is false.
inline void check(bool condition, const char* message) {
    if (!condition) [[unlikely]] throw Error(message);
}

/// Throws lf::Error(make_message()) when `condition` is false; the message
/// is built only on failure.
template <typename MakeMessage>
    requires std::convertible_to<std::invoke_result_t<MakeMessage>, std::string>
inline void check(bool condition, MakeMessage&& make_message) {
    if (!condition) [[unlikely]] throw Error(std::forward<MakeMessage>(make_message)());
}

void check(bool condition, const std::string& message) = delete;

}  // namespace lf

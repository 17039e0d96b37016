// Strict numeric parsing for command-line flags, shared by g2gsim and the
// paper benches: a flag value is a number only when the whole argument is
// one, so "5x", "-3" for an unsigned flag, "" and "nan" are all rejected
// instead of being read as something else.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <system_error>
#include <type_traits>

namespace g2g {

/// `text` as a T in [lo, hi], or nullopt unless the whole argument is one
/// finite number in range (no sign on unsigned types, no trailing bytes).
template <typename T>
std::optional<T> parse_number(const char* text, T lo = std::numeric_limits<T>::lowest(),
                              T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

}  // namespace g2g

#pragma once
// Strict text-to-integer parsing for untrusted input (query strings,
// environment variables).

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace hmr {

/// Decimal digits only: no sign, no whitespace, no trailing text, and
/// a value that fits 64 bits.  std::strtoull, by contrast, negates a
/// leading '-', skips leading blanks and saturates on overflow.
inline std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || end != last) return std::nullopt;
  return v;
}

} // namespace hmr

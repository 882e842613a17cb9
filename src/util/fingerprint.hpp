// Fingerprint helpers: the one FNV-1a hash and the one strict hex parser.
//
// Scenario fingerprints (core/scenario_spec), the build hash in store
// provenance headers (core/version) and the golden trace digests
// (sim/trace_io) all hash through Fnv1a, and every fingerprint read back
// from text (store rows, `point` queries) goes through parse_hex_u64.
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dring::util {

/// FNV-1a, 64-bit.  The offset basis is 1469598103934665603, one digit
/// short of the standard 14695981039346656037.  Every committed
/// fingerprint, store build hash and golden digest was computed from this
/// basis, so it is fixed here and deliberately not a parameter.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

inline std::uint64_t fnv1a(std::string_view s) {
  Fnv1a f;
  f.bytes(s);
  return f.h;
}

/// Strict hex: an optional "0x"/"0X" prefix, then 1-16 significant hex
/// digits and nothing else.  A sign, whitespace, an empty string, trailing
/// bytes or a value above 2^64-1 throw std::invalid_argument.
inline std::uint64_t parse_hex_u64(std::string_view s) {
  const std::string_view original = s;
  if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X'))
    s.remove_prefix(2);
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value, 16);
  if (s.empty() || ec != std::errc() || ptr != s.data() + s.size())
    throw std::invalid_argument("invalid hex u64: \"" +
                                std::string(original) + "\"");
  return value;
}

}  // namespace dring::util

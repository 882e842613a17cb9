#include "core/version.hpp"

#include <cstdio>

#include "util/fingerprint.hpp"

namespace dring::core {

namespace {

/// One string describing everything about this build that could make two
/// binaries of the same source behave or perform differently.
std::string build_identity() {
  std::string id;
#if defined(__VERSION__)
  id += __VERSION__;
#endif
  id += "|std=" + std::to_string(__cplusplus);
#if defined(NDEBUG)
  id += "|ndebug";
#endif
#if defined(__OPTIMIZE__)
  id += "|optimize";
#endif
#if defined(__SANITIZE_ADDRESS__)
  id += "|asan";
#endif
  return id;
}

}  // namespace

std::string engine_version() {
  return "dring-" + std::to_string(kEngineVersionMajor) + "." +
         std::to_string(kEngineVersionMinor) + "." +
         std::to_string(kEngineVersionPatch);
}

std::uint64_t build_flags_fingerprint() {
  static const std::uint64_t kHash = util::fnv1a(build_identity());
  return kHash;
}

std::string build_flags_hash() {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(build_flags_fingerprint()));
  return buf;
}

}  // namespace dring::core

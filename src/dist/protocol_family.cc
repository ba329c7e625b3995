#include "dist/protocol_family.h"

#include <iterator>
#include <string>

namespace distsketch {
namespace {

// Indexed by the enum value.
constexpr std::string_view kFamilyNames[] = {
    "fd_merge", "exact_gram",      "row_sampling",
    "svs",      "adaptive_sketch", "countsketch",
};

}  // namespace

std::string_view ProtocolFamilyName(ProtocolFamily family) {
  return kFamilyNames[static_cast<size_t>(family)];
}

StatusOr<ProtocolFamily> ParseProtocolFamily(std::string_view name) {
  for (size_t i = 0; i < std::size(kFamilyNames); ++i) {
    if (kFamilyNames[i] == name) return static_cast<ProtocolFamily>(i);
  }
  return Status::InvalidArgument("unknown protocol family: " +
                                 std::string(name));
}

}  // namespace distsketch

#include "reliable/profile.h"

#include <stdexcept>

#include "util/check.h"

namespace ttmqo {

std::string_view ReliabilityProfileName(ReliabilityProfile profile) {
  switch (profile) {
    case ReliabilityProfile::kOff:
      return "off";
    case ReliabilityProfile::kArq:
      return "arq";
  }
  Check(false, "unknown reliability profile");
  return "";
}

ReliabilityProfile ParseReliabilityProfile(const std::string& name) {
  if (name == "off") return ReliabilityProfile::kOff;
  if (name == "arq") return ReliabilityProfile::kArq;
  throw std::invalid_argument("unknown reliability profile '" + name +
                              "' (off|arq)");
}

}  // namespace ttmqo

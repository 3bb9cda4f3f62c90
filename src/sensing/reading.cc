#include "sensing/reading.h"

#include <sstream>

namespace ttmqo {

std::string Reading::ToString() const {
  std::ostringstream out;
  out << "node " << node_ << " @" << time_ << "ms {";
  bool first = true;
  for (Attribute attr : kAllAttributes) {
    if (!present_[AttributeIndex(attr)]) continue;
    if (!first) out << ", ";
    first = false;
    out << AttributeName(attr) << "=" << values_[AttributeIndex(attr)];
  }
  out << "}";
  return out.str();
}

}  // namespace ttmqo

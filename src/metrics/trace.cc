#include "metrics/trace.h"

namespace ttmqo {

JsonlTraceWriter::~JsonlTraceWriter() { Flush(); }

void JsonlTraceWriter::Flush() { out_->flush(); }

void JsonlTraceWriter::Emit(const TraceEvent& event) {
  ++events_;
  WriteTraceEventJson(*out_, event);
  *out_ << '\n';
}

}  // namespace ttmqo

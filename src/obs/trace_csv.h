// Importer for WriteTraceCsv output (TraceSink::ExportCsv and the trace.csv
// of black-box bundles).
//
// The CSV export (time_us,event,arg0,arg1,arg2 plus an optional trailing
// "# dropped=N" comment; legacy 4-field rows import with arg2 = 0) is the
// trace interchange format: benches write it
// next to their JSON reports, and trace_inspect re-imports it here to replay
// the run through the analyzer offline.

#ifndef SRC_OBS_TRACE_CSV_H_
#define SRC_OBS_TRACE_CSV_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/hal/trace.h"

namespace emeralds {
namespace obs {

struct TraceCsvImport {
  std::vector<TraceEvent> events;  // oldest first, as exported
  uint64_t dropped = 0;            // from the "# dropped=N" trailer, if any
};

// Parses WriteTraceCsv output from `text`. Returns false on malformed input with
// a line-numbered message in *error (out is left partially filled).
bool ImportTraceCsv(const std::string& text, TraceCsvImport* out, std::string* error);

// Reads the whole stream, then parses. `in` is consumed to EOF.
bool ImportTraceCsv(std::FILE* in, TraceCsvImport* out, std::string* error);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_TRACE_CSV_H_

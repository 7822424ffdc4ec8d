#include "common/logging.h"

namespace kg::internal {

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[FATAL " << base << ":" << line << "] Check failed: "
          << condition << " ";
}

FatalLogMessage::~FatalLogMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  std::abort();
}

}  // namespace kg::internal

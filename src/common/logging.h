#ifndef KGRAPH_COMMON_LOGGING_H_
#define KGRAPH_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace kg {

namespace internal {

/// Accumulates a check-failure message, flushes it to stderr and aborts
/// the process on destruction. Used by KG_CHECK.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

/// Aborts with a message when `condition` is false. For programmer errors
/// (violated invariants), not recoverable failures — those use Status.
#define KG_CHECK(condition)                                          \
  if (condition) {                                                   \
  } else                                                             \
    ::kg::internal::FatalLogMessage(__FILE__, __LINE__, #condition)  \
        .stream()

#define KG_CHECK_OK(expr)                                     \
  do {                                                        \
    ::kg::Status _kg_check_status = (expr);                   \
    KG_CHECK(_kg_check_status.ok()) << _kg_check_status;      \
  } while (false)

}  // namespace kg

#endif  // KGRAPH_COMMON_LOGGING_H_

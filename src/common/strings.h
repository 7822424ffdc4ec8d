#ifndef KGRAPH_COMMON_STRINGS_H_
#define KGRAPH_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace kg {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Splits `text` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lower-case copy.
std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

/// Formats `value` with `digits` decimal places.
std::string FormatDouble(double value, int digits);

/// Formats an integer count with thousands separators ("1,234,567").
std::string FormatCount(int64_t value);

}  // namespace kg

#endif  // KGRAPH_COMMON_STRINGS_H_

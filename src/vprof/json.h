// JSON string escaping shared by the exporters (Chrome trace events, the
// online tree's JSON) and the bench reports.
#ifndef SRC_VPROF_JSON_H_
#define SRC_VPROF_JSON_H_

#include <string>

namespace vprof {

// Escapes quotes, backslashes and newlines for embedding `in` in a JSON
// string literal.
inline std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace vprof

#endif  // SRC_VPROF_JSON_H_

#include "simcommon/jsonl.hpp"

#include <cstdlib>

namespace simx {

JsonlWriter& JsonlWriter::str(std::string_view s) {
  out_ += '"';
  std::size_t run = 0;  // start of the pending run that needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out_.append(esc, sizeof esc);
      }
    }
  }
  out_.append(s.substr(run));
  out_ += '"';
  return *this;
}

std::string json_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u':
        if (i + 4 < s.size()) {
          out += static_cast<char>(
              std::strtoul(std::string(s.substr(i + 1, 4)).c_str(), nullptr, 16));
          i += 4;
        }
        break;
      default: out += s[i];
    }
  }
  return out;
}

}  // namespace simx

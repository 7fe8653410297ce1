#include "simcommon/jsonl.hpp"

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

std::string_view JsonlStr::unescape(std::string& scratch) const {
  // JsonlReader::str validated every escape, so each one decodes.
  scratch.clear();
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '\\') continue;
    scratch.append(raw.substr(run, i - run));
    switch (raw[++i]) {
      case 'n': scratch += '\n'; break;
      case 't': scratch += '\t'; break;
      case 'r': scratch += '\r'; break;
      case 'u': {
        unsigned code = 0;
        (void)std::from_chars(raw.data() + i + 3, raw.data() + i + 5, code, 16);
        scratch += static_cast<char>(code);
        i += 4;
        break;
      }
      default: scratch += raw[i]; break;  // '"' or '\\'
    }
    run = i + 1;
  }
  scratch.append(raw.substr(run));
  return scratch;
}

}  // namespace simx

#pragma once
// JSON string escaping and exact-number appenders, header-only so every
// layer (metric and span serialization, the run journal, the netlist and
// placement text formats, bench reports) shares one implementation without
// a link-time dependency.

#include <array>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace aplace::base {

/// Append `s` JSON-escaped, without the enclosing quotes: `"` and `\` get a
/// backslash, newline, carriage return and tab their short escapes, and
/// every other control character below 0x20 becomes \u00XX.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    const auto uc = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (uc < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[uc >> 4];
          out += "0123456789abcdef"[uc & 0xf];
        } else {
          out += ch;
        }
    }
  }
}

/// Append `s` as a quoted JSON string.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

/// Append the shortest decimal form that parses back to exactly the same
/// double (std::to_chars), so a serialize -> parse round trip is
/// bit-identical (journal resume relies on this).
inline void append_double(std::string& out, double v) {
  std::array<char, 32> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out.append(buf.data(), res.ptr);
}

/// Append `v` in decimal.
inline void append_u64(std::string& out, std::uint64_t v) {
  std::array<char, 24> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out.append(buf.data(), res.ptr);
}

}  // namespace aplace::base

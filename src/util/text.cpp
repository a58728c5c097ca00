#include "util/text.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hybridic::text {

bool parse_u64(std::string_view text, std::uint64_t& value) {
  if (text.empty()) {
    return false;
  }
  value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  return true;
}

bool parse_u32(std::string_view text, std::uint32_t& value) {
  std::uint64_t wide = 0;
  if (!parse_u64(text, wide) || wide > UINT32_MAX) {
    return false;
  }
  value = static_cast<std::uint32_t>(wide);
  return true;
}

bool parse_f64(const std::string& text, double& value) {
  // strtod would skip leading whitespace; a token never starts with any.
  if (text.empty() || text[0] == ' ' ||
      (text[0] >= '\t' && text[0] <= '\r')) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  value = std::strtod(text.c_str(), &end);
  // glibc flags an inexact subnormal result as ERANGE too; only a value
  // flushed to zero or infinity is lost.
  const bool lost =
      errno == ERANGE && (value == 0.0 || std::isinf(value));
  return end == text.c_str() + text.size() && !lost;
}

bool parse_bool(std::string_view text, bool& value) {
  if (text == "0" || text == "1") {
    value = text == "1";
    return true;
  }
  return false;
}

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string{buf};
}

std::string decimal17(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return std::string{buf};
}

std::string hexf(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return std::string{buf};
}

std::vector<std::string> split_fields(std::string_view line) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (true) {
    const std::size_t sp = line.find(' ', pos);
    const std::size_t end = sp == std::string_view::npos ? line.size() : sp;
    if (end == pos) {
      return {};  // Empty field: malformed.
    }
    fields.emplace_back(line.substr(pos, end - pos));
    if (sp == std::string_view::npos) {
      return fields;
    }
    pos = sp + 1;
  }
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Codec line reader.

bool Reader::take_line(std::string& line) {
  const std::size_t nl = text_.find('\n', pos_);
  if (nl == std::string_view::npos) {
    return false;
  }
  line.assign(text_.substr(pos_, nl - pos_));
  pos_ = nl + 1;
  return true;
}

bool Reader::take_tagged(std::string_view tag, std::string& rest) {
  std::string line;
  if (!take_line(line) || line.size() <= tag.size() ||
      line.compare(0, tag.size(), tag) != 0 || line[tag.size()] != ' ') {
    return false;
  }
  rest = line.substr(tag.size() + 1);
  return true;
}

bool Reader::take_exact(std::string_view expected) {
  std::string line;
  return take_line(line) && line == expected;
}

bool Reader::take_sized(std::string_view tag, std::string& value) {
  std::string rest;
  std::uint64_t len = 0;
  return take_tagged(tag, rest) && parse_u64(rest, len) &&
         take_raw(len, value);
}

bool Reader::take_raw(std::uint64_t len, std::string& value) {
  // Compare against what is left, so no length (however damaged) can
  // wrap the bound.
  if (len >= text_.size() - pos_ || text_[pos_ + len] != '\n') {
    return false;
  }
  value.assign(text_.substr(pos_, len));
  pos_ += len + 1;
  return true;
}

bool Reader::take_fields(std::string_view tag, std::size_t count,
                         std::vector<std::string>& fields) {
  std::string line;
  if (!(tag.empty() ? take_line(line) : take_tagged(tag, line))) {
    return false;
  }
  fields = split_fields(line);
  return fields.size() == count;
}

// ---------------------------------------------------------------------------
// Flat JSON.

bool JsonValue::as_string(std::string& out) const {
  if (kind != Kind::kString) {
    return false;
  }
  out = text;
  return true;
}

bool JsonValue::as_u64(std::uint64_t& out) const {
  return kind == Kind::kNumber && parse_u64(text, out);
}

bool JsonValue::as_u32(std::uint32_t& out) const {
  return kind == Kind::kNumber && parse_u32(text, out);
}

bool JsonValue::as_f64(double& out) const {
  return kind == Kind::kNumber && parse_f64(text, out);
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

class FlatJsonParser {
public:
  explicit FlatJsonParser(std::string_view text) : text_(text) {}

  bool parse(FlatJson& out, std::string& error) {
    skip_ws();
    if (!take('{')) {
      error = "expected '{'";
      return false;
    }
    if (!parse_members(out.fields, &out.nested, error)) {
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing characters after '}'";
      return false;
    }
    return true;
  }

private:
  /// Members after the opening '{' through the closing '}'. `nested` is
  /// where a member object goes, or null where none may appear.
  bool parse_members(JsonObject& into, JsonObject* nested,
                     std::string& error) {
    skip_ws();
    if (take('}')) {
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(key)) {
        error = "expected a string key";
        return false;
      }
      skip_ws();
      if (!take(':')) {
        error = "expected ':' after key \"" + key + "\"";
        return false;
      }
      skip_ws();
      JsonValue value;
      if (nested != nullptr && take('{')) {
        value.kind = JsonValue::Kind::kObject;
        if (!parse_members(*nested, nullptr, error)) {
          return false;
        }
        nested = nullptr;  // At most one nested object.
      } else if (!parse_scalar(value)) {
        error = "bad value for key \"" + key + "\"";
        return false;
      }
      if (!into.emplace(key, std::move(value)).second) {
        error = "duplicate key \"" + key + "\"";
        return false;
      }
      skip_ws();
      if (take(',')) {
        skip_ws();
        continue;
      }
      if (take('}')) {
        return true;
      }
      error = "expected ',' or '}'";
      return false;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool take(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool take_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool parse_string(std::string& out) {
    if (!take('"')) {
      return false;
    }
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      if (c != '\\') {
        out.push_back(c);
      } else if (!take_escape(out)) {
        return false;
      }
    }
    return false;
  }

  /// The escape after a '\\', accepted only in the exact spelling
  /// json_escape gives its byte.
  bool take_escape(std::string& out) {
    if (pos_ >= text_.size()) {
      return false;
    }
    const char esc = text_[pos_++];
    char byte = 0;
    switch (esc) {
      case '"': byte = '"'; break;
      case '\\': byte = '\\'; break;
      case 'n': byte = '\n'; break;
      case 't': byte = '\t'; break;
      case 'r': byte = '\r'; break;
      case 'u': {
        const std::string_view hex = text_.substr(pos_, 4);
        unsigned value = 0;
        for (const char h : hex) {
          value = value * 16 +
                  static_cast<unsigned>(is_digit(h) ? h - '0' : h - 'a' + 10);
        }
        if (hex.size() != 4 || value >= 0x20 ||
            json_escape(std::string(1, static_cast<char>(value))) !=
                "\\u" + std::string{hex}) {
          return false;
        }
        pos_ += 4;
        byte = static_cast<char>(value);
        break;
      }
      default: return false;
    }
    out.push_back(byte);
    return true;
  }

  bool parse_scalar(JsonValue& out) {
    if (pos_ < text_.size() && text_[pos_] == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.text);
    }
    for (const std::string_view literal : {"true", "false"}) {
      if (text_.substr(pos_, literal.size()) == literal) {
        pos_ += literal.size();
        out = {JsonValue::Kind::kBool, literal == "true" ? "1" : "0"};
        return true;
      }
    }
    // number = [ "-" ] ( "0" / 1-9 *DIGIT ) [ "." 1*DIGIT ]
    //          [ ( "e" / "E" ) [ "+" / "-" ] 1*DIGIT ]
    const std::size_t start = pos_;
    take('-');
    if (!take('0') && !take_digits()) {
      return false;
    }
    if (take('.') && !take_digits()) {
      return false;
    }
    if (take('e') || take('E')) {
      if (!take('+')) {
        take('-');
      }
      if (!take_digits()) {
        return false;
      }
    }
    out.kind = JsonValue::Kind::kNumber;
    out.text.assign(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_flat_json(std::string_view text, FlatJson& out,
                     std::string& error) {
  return FlatJsonParser{text}.parse(out, error);
}

}  // namespace hybridic::text

#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"

namespace kg::obs {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (expect_value_) {
    expect_value_ = false;
    return;
  }
  KG_CHECK(stack_.empty() || stack_.back() == Frame::kArray)
      << "JsonWriter: value inside an object requires a Key first";
  if (!stack_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  } else {
    KG_CHECK(out_.empty()) << "JsonWriter: only one top-level value allowed";
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  KG_CHECK(!stack_.empty() && stack_.back() == Frame::kObject &&
           !expect_value_)
      << "JsonWriter: unbalanced EndObject";
  out_ += '}';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  KG_CHECK(!stack_.empty() && stack_.back() == Frame::kArray &&
           !expect_value_)
      << "JsonWriter: unbalanced EndArray";
  out_ += ']';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  KG_CHECK(!stack_.empty() && stack_.back() == Frame::kObject &&
           !expect_value_)
      << "JsonWriter: Key outside an object";
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  expect_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value, int digits) {
  BeforeValue();
  if (!std::isfinite(value)) {
    // JSON has no inf/nan literals; null is the conventional stand-in.
    out_ += "null";
    return *this;
  }
  out_ += FormatDouble(value, digits);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

std::string JsonWriter::Take() {
  KG_CHECK(stack_.empty() && !expect_value_)
      << "JsonWriter: Take with unclosed containers";
  return std::move(out_);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    Status s = ParseValue(&v, 0);
    if (!s.ok()) return s;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("json: trailing garbage at offset " +
                                     std::to_string(pos_));
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Fail(const std::string& what) {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string_value);
      }
      case 't':
        if (ConsumeLiteral("true")) {
          out->type = JsonValue::Type::kBool;
          out->bool_value = true;
          return Status::OK();
        }
        return Fail("bad literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          out->type = JsonValue::Type::kBool;
          out->bool_value = false;
          return Status::OK();
        }
        return Fail("bad literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          out->type = JsonValue::Type::kNull;
          return Status::OK();
        }
        return Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->type = JsonValue::Type::kObject;
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      Status s = ParseString(&key);
      if (!s.ok()) return s;
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      s = ParseValue(&value, depth + 1);
      if (!s.ok()) return s;
      out->object.emplace(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->type = JsonValue::Type::kArray;
    SkipSpace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      Status s = ParseValue(&value, depth + 1);
      if (!s.ok()) return s;
      out->array.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          return Fail("raw control character in string");
        }
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<uint32_t>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<uint32_t>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<uint32_t>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          if (cp >= 0xD800 && cp <= 0xDFFF) {
            return Fail("surrogate \\u escapes unsupported");
          }
          // UTF-8 encode the BMP codepoint.
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return Fail("bad escape character");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Fail("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      return Fail("malformed number");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace kg::obs

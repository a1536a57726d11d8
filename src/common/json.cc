#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace wimpi {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no Inf/NaN
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// ---------- JsonWriter ----------

void JsonWriter::BeforeValue() {
  WIMPI_CHECK(!done_) << "JsonWriter: document already complete";
  if (stack_.empty()) return;
  Level& top = stack_.back();
  if (top.kind == '{') {
    WIMPI_CHECK(top.pending_key)
        << "JsonWriter: value inside an object needs a Key() first";
    top.pending_key = false;
  } else {
    if (top.has_items) out_ += ',';
  }
  top.has_items = true;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back({'{'});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  WIMPI_CHECK(!stack_.empty() && stack_.back().kind == '{' &&
              !stack_.back().pending_key)
      << "JsonWriter: unbalanced EndObject";
  stack_.pop_back();
  out_ += '}';
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back({'['});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  WIMPI_CHECK(!stack_.empty() && stack_.back().kind == '[')
      << "JsonWriter: unbalanced EndArray";
  stack_.pop_back();
  out_ += ']';
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& k) {
  WIMPI_CHECK(!stack_.empty() && stack_.back().kind == '{' &&
              !stack_.back().pending_key)
      << "JsonWriter: Key() outside an object (or doubled)";
  if (stack_.back().has_items) out_ += ',';
  stack_.back().has_items = true;  // comma bookkeeping done here
  stack_.back().pending_key = true;
  out_ += '"';
  out_ += JsonEscape(k);
  out_ += "\":";
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& v) {
  if (!stack_.empty() && stack_.back().kind == '{') {
    WIMPI_CHECK(stack_.back().pending_key)
        << "JsonWriter: value inside an object needs a Key() first";
    stack_.back().pending_key = false;
  } else {
    BeforeValue();
  }
  out_ += '"';
  out_ += JsonEscape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& json) {
  if (!stack_.empty() && stack_.back().kind == '{') {
    WIMPI_CHECK(stack_.back().pending_key)
        << "JsonWriter: value inside an object needs a Key() first";
    stack_.back().pending_key = false;
  } else {
    BeforeValue();
  }
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::RawMembers(const std::string& obj_json) {
  WIMPI_CHECK(!stack_.empty() && stack_.back().kind == '{' &&
              !stack_.back().pending_key)
      << "JsonWriter: RawMembers() needs an open object and no pending key";
  WIMPI_CHECK(obj_json.size() >= 2 && obj_json.front() == '{' &&
              obj_json.back() == '}')
      << "JsonWriter: RawMembers() takes a brace-wrapped object";
  const std::string inner = obj_json.substr(1, obj_json.size() - 2);
  if (inner.empty()) return *this;
  if (stack_.back().has_items) out_ += ',';
  stack_.back().has_items = true;
  out_ += inner;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  return Raw(std::to_string(v));
}

JsonWriter& JsonWriter::Double(double v) { return Raw(JsonNumber(v)); }

JsonWriter& JsonWriter::Bool(bool v) { return Raw(v ? "true" : "false"); }

JsonWriter& JsonWriter::Null() { return Raw("null"); }

const std::string& JsonWriter::str() const {
  WIMPI_CHECK(stack_.empty())
      << "JsonWriter: str() with open containers";
  return out_;
}

// ---------- JsonValue ----------

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

double JsonValue::GetDouble(const std::string& key, double def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsDouble() : def;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : def;
}

// Recursive-descent parser. Depth-limited so hostile input cannot blow the
// stack; artifacts nest three levels deep.
class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Run(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const std::string& what) {
    if (error_ != nullptr) {
      *error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return Fail("invalid literal");
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (text_[pos_] != '"') return Fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("truncated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += h - '0';
              } else if (h >= 'a' && h <= 'f') {
                code += h - 'a' + 10;
              } else if (h >= 'A' && h <= 'F') {
                code += h - 'A' + 10;
              } else {
                return Fail("bad \\u escape");
              }
            }
            // UTF-8 encode (the writer only ever emits \u00xx, but accept
            // the full BMP; surrogate pairs are out of scope).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      } else {
        *out += c;
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected number");
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("malformed number");
    if (!std::isfinite(v)) return Fail("number out of range");
    *out = JsonValue::MakeNumber(v);
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type_ = JsonValue::Type::kObject;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Fail("expected ':'");
        }
        ++pos_;
        SkipWs();
        JsonValue member;
        if (!ParseValue(&member, depth + 1)) return false;
        out->obj_.emplace(std::move(key), std::move(member));
        SkipWs();
        if (pos_ >= text_.size()) return Fail("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out->type_ = JsonValue::Type::kArray;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        JsonValue item;
        if (!ParseValue(&item, depth + 1)) return false;
        out->arr_.push_back(std::move(item));
        SkipWs();
        if (pos_ >= text_.size()) return Fail("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type_ = JsonValue::Type::kString;
      return ParseString(&out->str_);
    }
    if (c == 't') {
      if (!Literal("true")) return false;
      *out = JsonValue::MakeBool(true);
      return true;
    }
    if (c == 'f') {
      if (!Literal("false")) return false;
      *out = JsonValue::MakeBool(false);
      return true;
    }
    if (c == 'n') {
      if (!Literal("null")) return false;
      *out = JsonValue::MakeNull();
      return true;
    }
    return ParseNumber(out);
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

bool JsonValue::Parse(const std::string& text, JsonValue* out,
                      std::string* error) {
  *out = JsonValue();
  JsonParser parser(text, error);
  return parser.Run(out);
}

}  // namespace wimpi

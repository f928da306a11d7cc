// Minimal JSON object writer for the harness's result record.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace perfbench {

[[nodiscard]] inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Full-precision rendering; JSON has no NaN/Inf, so those become null.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  void raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += json_quote(key);
    body_ += ": ";
    body_ += json;
  }
  void string(std::string_view key, std::string_view v) { raw(key, json_quote(v)); }
  void number(std::string_view key, double v) { raw(key, json_number(v)); }
  void integer(std::string_view key, std::int64_t v) {
    raw(key, std::to_string(v));
  }
  void boolean(std::string_view key, bool v) { raw(key, v ? "true" : "false"); }

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench

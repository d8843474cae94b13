#include "src/support/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace res {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string_view> StrSplit(std::string_view text, char sep, bool skip_empty) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view token = text.substr(start, end - start);
    if (!token.empty() || !skip_empty) {
      out.push_back(token);
    }
    if (end == text.size()) {
      break;
    }
    start = end + 1;
  }
  return out;
}

std::string_view StrTrim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StrStartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::optional<int64_t> ParseInt64(std::string_view text) {
  text = StrTrim(text);
  if (text.empty()) {
    return std::nullopt;
  }
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    text.remove_prefix(1);
    if (text.empty()) {
      return std::nullopt;
    }
  }
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  }
  uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    // Checked before multiplying: a product can wrap past any later sum.
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / base) {
      return std::nullopt;  // overflow
    }
    value = value * base + digit;
  }
  if (negative) {
    if (value > (1ULL << 63)) {
      return std::nullopt;
    }
    // Negated in unsigned arithmetic: 2^63 maps to INT64_MIN without ever
    // negating a signed INT64_MIN.
    return static_cast<int64_t>(-value);
  }
  if (value > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return std::nullopt;
  }
  return static_cast<int64_t>(value);
}

std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

}  // namespace res

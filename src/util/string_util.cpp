#include "util/string_util.hpp"

#include <algorithm>
#include <cstdint>

#include "util/hash.hpp"

namespace pti::util {

std::string to_lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(to_lower(c));
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (to_lower(a[i]) != to_lower(b[i])) return false;
  }
  return true;
}

std::size_t ihash(std::string_view s) noexcept {
  std::uint64_t h = kFnvOffset64;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(to_lower(c));
    h *= kFnvPrime64;
  }
  return static_cast<std::size_t>(h);
}

bool iless(std::string_view a, std::string_view b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const char ca = to_lower(a[i]);
    const char cb = to_lower(b[i]);
    if (ca != cb) return ca < cb;
  }
  return a.size() < b.size();
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
  };
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool icontains(std::string_view haystack, std::string_view needle) noexcept {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (std::size_t k = 0; k < needle.size(); ++k) {
      if (to_lower(haystack[i + k]) != to_lower(needle[k])) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

std::vector<std::string> identifier_tokens(std::string_view identifier) {
  std::vector<std::string> tokens;
  std::string current;
  const auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  const auto is_upper = [](char c) { return c >= 'A' && c <= 'Z'; };
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  for (std::size_t i = 0; i < identifier.size(); ++i) {
    const char c = identifier[i];
    if (c == '_' || c == '-' || c == ' ') {
      flush();
      continue;
    }
    // New hump: an upper-case letter starts a token, except inside an
    // acronym run ("XMLParser" -> "xml", "parser").
    if (is_upper(c)) {
      const bool prev_lower = i > 0 && !is_upper(identifier[i - 1]) &&
                              !is_digit(identifier[i - 1]) && identifier[i - 1] != '_';
      const bool next_lower = i + 1 < identifier.size() && !is_upper(identifier[i + 1]) &&
                              !is_digit(identifier[i + 1]) && identifier[i + 1] != '_';
      if (prev_lower || (next_lower && !current.empty())) flush();
    } else if (is_digit(c)) {
      if (!current.empty() && !is_digit(current.back())) flush();
    } else if (!current.empty() && is_digit(current.back())) {
      flush();
    }
    current.push_back(to_lower(c));
  }
  flush();
  return tokens;
}

bool token_subset_match(std::string_view a, std::string_view b) {
  const std::vector<std::string> ta = identifier_tokens(a);
  const std::vector<std::string> tb = identifier_tokens(b);
  const auto subset = [](const std::vector<std::string>& small,
                         const std::vector<std::string>& big) {
    for (const auto& t : small) {
      if (std::find(big.begin(), big.end(), t) == big.end()) return false;
    }
    return true;
  };
  if (ta.empty() || tb.empty()) return ta.empty() && tb.empty();
  return subset(ta, tb) || subset(tb, ta);
}

bool wildcard_match(std::string_view pattern, std::string_view text) noexcept {
  // Iterative two-pointer algorithm with backtracking on the last `*`.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || to_lower(pattern[p]) == to_lower(text[t]))) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace pti::util

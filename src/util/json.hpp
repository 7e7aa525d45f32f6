#pragma once
// Minimal JSON reader for the offline tools (hmr_top, hmr_trace).
//
// The runtime's HTTP routes emit machine-oriented JSON; this parses it
// back into a small DOM so the CLI tools need no external dependency.
// Scope is deliberately narrow: UTF-8 passthrough (no \uXXXX surrogate
// pairing beyond Basic Latin), numbers as double, objects keep
// insertion order.  Not a streaming parser — bodies here are a few
// hundred KB at most.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace hmr::json {

class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;

  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Typed accessors with fallbacks (wrong kind -> fallback).
  double num_or(double fallback) const {
    return kind == Kind::Number ? number : fallback;
  }
  bool bool_or(bool fallback) const {
    return kind == Kind::Bool ? boolean : fallback;
  }
  const std::string& str_or(const std::string& fallback) const {
    return kind == Kind::String ? str : fallback;
  }

  /// Chained member access: `v.get("governor", "strategy")` walks the
  /// path, nullptr as soon as a hop is missing.
  template <typename... Keys>
  const Value* get(const std::string& key, const Keys&... rest) const {
    const Value* v = find(key);
    if constexpr (sizeof...(rest) == 0) {
      return v;
    } else {
      return v ? v->get(rest...) : nullptr;
    }
  }
};

/// Parse `text` into `out`.  On failure returns false and, when `err`
/// is non-null, describes the first problem with its byte offset.
bool parse(const std::string& text, Value& out, std::string* err = nullptr);

} // namespace hmr::json

// Versioned, length-prefixed text codec for cross-process artifacts.
//
// Process-level campaign sharding (campaign/shard.h) moves specs, plans and
// results between processes through files. The format must be (a) byte-stable
// — encode(decode(encode(x))) == encode(x), so shard outputs can be diffed and
// content-addressed with util/fnv.h like the in-process cache keys — and
// (b) strict: a truncated file, a version bump or a field written out of
// order is a hard DecodeError with a diagnostic, never a silently skewed
// result merged into a campaign.
//
// Wire format (text, one field per line):
//
//   xlv <tag> v<version>\n          header: domain tag + domain version
//   <name>=<len>:<payload>\n        every field, in a fixed schema order
//
// The payload is length-prefixed raw bytes (strings may contain '=' , ':'
// or newlines without escaping); numbers are rendered canonically — decimal
// for integers, hexfloat ("%a") for doubles so every finite value
// round-trips exactly. Lists are a count field named "<name>[]" followed by
// the elements' fields. The decoder checks each field's *name* against the
// schema the caller asks for, which is what rejects reordered or
// version-skewed inputs even when the header matches.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace xlv::util {

/// Strict decode failure: truncation, header/version mismatch, field-name
/// mismatch (reordering), or a malformed scalar rendering.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error("codec: " + what) {}
};

/// Parse the document header "xlv <tag> v<version>" and return its tag
/// without consuming any fields — how a stream multiplexing several
/// document kinds (the worker pool's submit/status/result/heartbeat frames)
/// picks the decoder to run. Throws DecodeError on a malformed header; the
/// version is still validated by the actual Decoder afterwards.
std::string peekDocumentTag(std::string_view data);

class Encoder {
 public:
  Encoder(std::string_view tag, int version);

  void u64(std::string_view name, std::uint64_t v);
  void i64(std::string_view name, std::int64_t v);
  /// Hexfloat rendering: exact for every finite double, byte-stable across
  /// encode→decode→encode (also accepts inf/nan).
  void f64(std::string_view name, double v);
  void boolean(std::string_view name, bool v);
  void str(std::string_view name, std::string_view v);
  /// Emit the "<name>[]" count field; the caller then encodes `count`
  /// elements' fields.
  void beginList(std::string_view name, std::size_t count);

  const std::string& out() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void field(std::string_view name, std::string_view payload);
  std::string out_;
};

class Decoder {
 public:
  /// Parses and validates the header; throws DecodeError when the magic,
  /// tag or version does not match what the caller expects.
  Decoder(std::string_view data, std::string_view tag, int version);

  std::uint64_t u64(std::string_view name);
  std::int64_t i64(std::string_view name);
  double f64(std::string_view name);
  bool boolean(std::string_view name);
  std::string str(std::string_view name);
  std::size_t beginList(std::string_view name);

  /// Asserts the input was fully consumed (rejects trailing data).
  void finish() const;

 private:
  /// Read the next "<name>=<len>:<payload>\n" entry, checking the name.
  std::string_view payload(std::string_view name);
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace xlv::util

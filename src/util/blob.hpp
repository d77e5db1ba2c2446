#pragma once
// Tiny text serialization for durable process state ("blobs").
//
// A blob is a space-separated list of signed 64-bit integers.  Protocols
// use BlobWriter in save_state() and BlobReader in restore_state(); the
// reader is defensive — every accessor reports failure instead of
// throwing, so a truncated or corrupted blob (a storage fault that slid
// past the store's checksum, or a cross-protocol mixup) degrades to a
// failed restore and a cold start rather than undefined behaviour.
//
// The format is deliberately human-readable: record payloads show up
// as-is in store dumps and test failure messages.
//
// Blob text is *canonical* when it is exactly what BlobWriter and
// blob_join() render: decimal int64 tokens separated by single spaces, no
// leading or trailing space, no '+', no leading zeros, no "-0".  Canonical
// text round-trips through blob_tokens()/blob_join() byte for byte, so the
// hot checkpoint paths copy it verbatim instead of parsing and re-printing
// it.  CanonicalScanner is the one place that decides what is canonical;
// anything else goes through the normalising parser in blob_tokens().

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stpx::util {

/// Tokenize blob text into its raw values; nullopt on any malformed token.
/// Exposed so composite records (e.g. session manifests) can nest a whole
/// inner blob as one length-prefixed vec() and round-trip it losslessly.
/// Lenient beyond the canonical form: runs of spaces, '+', leading zeros.
std::optional<std::vector<std::int64_t>> blob_tokens(std::string_view blob);

/// Inverse of blob_tokens: render raw values back into canonical blob text.
std::string blob_join(const std::vector<std::int64_t>& values);

/// Walks canonical blob text token by token, in place (a view: the text
/// must outlive the scanner).  A read fails, and leaves the position where
/// it was, at the end of the text or where the text stops being canonical.
class CanonicalScanner {
 public:
  explicit CanonicalScanner(std::string_view text) : text_(text) {}

  /// The next token's value.
  bool next(std::int64_t& out);
  /// The next `n` tokens, as the verbatim text that holds them.
  bool tokens(std::size_t n, std::string_view& out);
  /// Every byte has been read.
  bool done() const { return pos_ == text_.size(); }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;  // end of the last token read (0: none read yet)
};

/// Token count of `text` if it is canonical, nullopt if it is not.
std::optional<std::size_t> canonical_token_count(std::string_view text);

class BlobWriter {
 public:
  void i64(std::int64_t v);
  void u64(std::uint64_t v);
  void boolean(bool v) { i64(v ? 1 : 0); }

  /// Length-prefixed run of values.
  void vec(const std::vector<std::int64_t>& vs);

  /// Append tokens that are already canonical text, verbatim (no length
  /// prefix): the same bytes as one i64() per token.
  void canonical(std::string_view text);

  /// A whole inner blob as one length-prefixed vec — the bytes of
  /// vec(blob_tokens(blob)), with an unparseable blob written as empty.
  /// Canonical text is counted and copied, not re-rendered.
  void nested(std::string_view blob);

  void reserve(std::size_t bytes) { out_.reserve(bytes); }
  const std::string& str() const { return out_; }
  /// Hand the text over without a copy; the writer is spent afterwards.
  std::string take() && { return std::move(out_); }

 private:
  std::string out_;
};

class BlobReader {
 public:
  explicit BlobReader(const std::string& blob);

  /// Each accessor returns false (leaving `out` untouched) on exhaustion
  /// or a malformed token; once any read fails, ok() stays false.
  bool i64(std::int64_t& out);
  bool u64(std::uint64_t& out);
  bool boolean(bool& out);

  /// Reads a length prefix then that many values; rejects absurd lengths
  /// (longer than the remaining token count) without allocating.
  bool vec(std::vector<std::int64_t>& out);

  bool ok() const { return ok_; }
  /// True when every token has been consumed and no read failed.
  bool done() const { return ok_ && pos_ == tokens_.size(); }

 private:
  std::vector<std::int64_t> tokens_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace stpx::util

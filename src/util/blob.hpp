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
// text is the only spelling any reader accepts: every other spelling is
// malformed, like a junk token.  It round-trips through
// blob_tokens()/blob_join() byte for byte, so the hot checkpoint paths
// copy it verbatim instead of parsing and re-printing it.
// CanonicalScanner is the one tokenizer of blob text.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stpx::util {

/// Tokenize canonical blob text into its raw values; nullopt when the
/// text is not canonical.
std::optional<std::vector<std::int64_t>> blob_tokens(std::string_view blob);

/// Inverse of blob_tokens: render raw values back into canonical blob text.
std::string blob_join(const std::vector<std::int64_t>& values);

/// Walks canonical blob text token by token, in place (a view: the text
/// must outlive the scanner).  A read fails, and leaves the position where
/// it was, at the end of the text or where the text stops being canonical.
/// Inline: a restart's scan reads every token of every record through it.
class CanonicalScanner {
 public:
  explicit CanonicalScanner(std::string_view text) : text_(text) {}

  /// The next token's value.
  bool next(std::int64_t& out) {
    const char* const end = text_.data() + text_.size();
    const char* p = text_.data() + pos_;
    if (pos_ != 0) {
      // A read only ever stops at a space or at the end of the text: step
      // over the one separator, or report the end.
      if (p == end) return false;
      ++p;
    }
    const char* const stop = scan_token(p, end, out);
    if (stop == nullptr) return false;
    pos_ = static_cast<std::size_t>(stop - text_.data());
    return true;
  }

  /// The next `n` tokens, as the verbatim text that holds them.
  bool tokens(std::size_t n, std::string_view& out) {
    const std::size_t from = pos_;
    std::int64_t v = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (!next(v)) {
        pos_ = from;
        return false;
      }
    }
    const std::size_t start = from == 0 ? 0 : from + 1;  // past the separator
    out = n == 0 ? std::string_view{} : text_.substr(start, pos_ - start);
    return true;
  }

  /// Every byte has been read.
  bool done() const { return pos_ == text_.size(); }

 private:
  /// The canonical token that starts at `p`: stores its value and returns
  /// one past its last digit, which is `end` or a space.  nullptr when the
  /// text at `p` is not a canonical token.
  static const char* scan_token(const char* p, const char* end,
                                std::int64_t& out) {
    constexpr std::ptrdiff_t kMaxDigits = 19;  // an int64 prints in <= 19
    const bool neg = p != end && *p == '-';
    if (neg) ++p;
    const char* const first = p;
    // At most 19 digits are read, so `mag` cannot wrap; a 20th digit
    // fails the separator check below.
    const char* const last =
        end - first > kMaxDigits ? first + kMaxDigits : end;
    std::uint64_t mag = 0;
    while (p != last && static_cast<unsigned>(*p - '0') < 10u) {
      mag = mag * 10 + static_cast<std::uint64_t>(*p - '0');
      ++p;
    }
    const std::ptrdiff_t digits = p - first;
    if (digits == 0 || (p != end && *p != ' ')) return nullptr;
    if (*first == '0' && (digits > 1 || neg)) return nullptr;  // 007, -0
    const std::uint64_t limit =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
        (neg ? 1 : 0);
    if (mag > limit) return nullptr;
    out = neg ? static_cast<std::int64_t>(std::uint64_t{0} - mag)
              : static_cast<std::int64_t>(mag);
    return p;
  }

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

  /// A whole inner blob as one length-prefixed vec: its token count, then
  /// its text verbatim.  Non-canonical text is written as an empty vec.
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

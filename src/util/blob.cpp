#include "util/blob.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <limits>

namespace stpx::util {

namespace {
// An int64 prints in at most 19 digits (plus a sign).
constexpr std::ptrdiff_t kMaxDigits = 19;

/// The canonical token that starts at `p`: stores its value and returns
/// one past its last digit, which is `end` or a space.  nullptr when the
/// text at `p` is not a canonical token.
const char* scan_token(const char* p, const char* end, std::int64_t& out) {
  const bool neg = p != end && *p == '-';
  if (neg) ++p;
  const char* const first = p;
  std::uint64_t mag = 0;
  while (p != end && *p >= '0' && *p <= '9') {
    if (p - first == kMaxDigits) return nullptr;
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
}  // namespace

bool CanonicalScanner::next(std::int64_t& out) {
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

bool CanonicalScanner::tokens(std::size_t n, std::string_view& out) {
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

std::optional<std::size_t> canonical_token_count(std::string_view text) {
  CanonicalScanner scan(text);
  std::size_t n = 0;
  std::int64_t v = 0;
  while (scan.next(v)) ++n;
  if (!scan.done()) return std::nullopt;
  return n;
}

std::optional<std::vector<std::int64_t>> blob_tokens(std::string_view blob) {
  std::vector<std::int64_t> tokens;
  CanonicalScanner scan(blob);
  std::int64_t v = 0;
  while (scan.next(v)) tokens.push_back(v);
  if (scan.done()) return tokens;
  // Not canonical: the normalising parser, for text no BlobWriter wrote.
  tokens.clear();
  std::size_t i = 0;
  while (i < blob.size()) {
    while (i < blob.size() && blob[i] == ' ') ++i;
    if (i >= blob.size()) break;
    const std::size_t start = i;
    while (i < blob.size() && blob[i] != ' ') ++i;
    const std::string tok(blob.substr(start, i - start));
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(tok.c_str(), &end, 10);
    if (errno != 0 || end == tok.c_str() || *end != '\0') return std::nullopt;
    tokens.push_back(static_cast<std::int64_t>(parsed));
  }
  return tokens;
}

std::string blob_join(const std::vector<std::int64_t>& values) {
  BlobWriter w;
  for (std::int64_t v : values) w.i64(v);
  return std::move(w).take();
}

void BlobWriter::i64(std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  if (!out_.empty()) out_.push_back(' ');
  out_.append(buf, static_cast<std::size_t>(res.ptr - buf));
}

void BlobWriter::u64(std::uint64_t v) { i64(static_cast<std::int64_t>(v)); }

void BlobWriter::vec(const std::vector<std::int64_t>& vs) {
  i64(static_cast<std::int64_t>(vs.size()));
  for (std::int64_t v : vs) i64(v);
}

void BlobWriter::canonical(std::string_view text) {
  if (text.empty()) return;
  if (!out_.empty()) out_.push_back(' ');
  out_.append(text);
}

void BlobWriter::nested(std::string_view blob) {
  if (const auto n = canonical_token_count(blob)) {
    u64(*n);
    canonical(blob);
    return;
  }
  const auto toks = blob_tokens(blob);
  vec(toks ? *toks : std::vector<std::int64_t>{});
}

BlobReader::BlobReader(const std::string& blob) {
  auto tokens = blob_tokens(blob);
  if (!tokens) {
    ok_ = false;
    return;
  }
  tokens_ = std::move(*tokens);
}

bool BlobReader::i64(std::int64_t& out) {
  if (!ok_ || pos_ >= tokens_.size()) {
    ok_ = false;
    return false;
  }
  out = tokens_[pos_++];
  return true;
}

bool BlobReader::u64(std::uint64_t& out) {
  std::int64_t v = 0;
  if (!i64(v) || v < 0) {
    ok_ = false;
    return false;
  }
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool BlobReader::boolean(bool& out) {
  std::int64_t v = 0;
  if (!i64(v) || (v != 0 && v != 1)) {
    ok_ = false;
    return false;
  }
  out = (v == 1);
  return true;
}

bool BlobReader::vec(std::vector<std::int64_t>& out) {
  std::int64_t n = 0;
  if (!i64(n) || n < 0 ||
      static_cast<std::size_t>(n) > tokens_.size() - pos_) {
    ok_ = false;
    return false;
  }
  out.assign(tokens_.begin() + static_cast<std::ptrdiff_t>(pos_),
             tokens_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += static_cast<std::size_t>(n);
  return true;
}

}  // namespace stpx::util

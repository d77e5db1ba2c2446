#include "util/blob.hpp"

#include <charconv>

namespace stpx::util {

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
  if (!scan.done()) return std::nullopt;
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
  const auto n = canonical_token_count(blob);
  u64(n.value_or(0));
  if (n) canonical(blob);
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

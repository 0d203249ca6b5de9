#include "common/serialization.hpp"

namespace svss {

// The vector decoders check a length prefix against both the caller's cap
// and the bytes actually left before reserving anything, so a forged
// prefix can never make a nonfaulty process allocate more than its input.
// One bounds check then covers every element.
std::optional<std::uint32_t> Reader::vec_len(std::size_t max_len) {
  auto len = u32();
  if (!len || *len > max_len || *len > (buf_.size() - pos_) / 4) {
    return std::nullopt;
  }
  return len;
}

std::uint32_t Reader::load_u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  }
  return v;
}

std::optional<FieldVec> Reader::field_vec(std::size_t max_len) {
  auto len = vec_len(max_len);
  if (!len) return std::nullopt;
  FieldVec out;
  out.reserve(*len);
  for (std::uint32_t i = 0; i < *len; ++i) {
    std::uint32_t v = load_u32();
    if (v >= Fp::kModulus) return std::nullopt;
    out.emplace_back(static_cast<std::int64_t>(v));
  }
  return out;
}

std::optional<std::vector<int>> Reader::int_vec(std::size_t max_len) {
  auto len = vec_len(max_len);
  if (!len) return std::nullopt;
  std::vector<int> out(*len);
  for (int& x : out) x = static_cast<std::int32_t>(load_u32());
  return out;
}

std::optional<Bytes> Reader::bytes(std::size_t max_len) {
  auto len = u32();
  if (!len || *len > max_len) return std::nullopt;
  if (pos_ + *len > buf_.size()) return std::nullopt;
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + *len));
  pos_ += *len;
  return out;
}

}  // namespace svss

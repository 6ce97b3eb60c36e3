#include "backhaul/wire.hpp"

#include <array>
#include <cstring>

namespace alphawan {

void BufferWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void BufferWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void BufferWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void BufferWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

void BufferWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

bool BufferReader::take(std::size_t n) {
  if (failed_ || pos_ + n > data_.size()) {
    failed_ = true;
    return false;
  }
  return true;
}

std::optional<std::uint8_t> BufferReader::u8() {
  if (!take(1)) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint16_t> BufferReader::u16() {
  if (!take(2)) return std::nullopt;
  const auto v = static_cast<std::uint16_t>(data_[pos_] |
                                            (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::optional<std::uint32_t> BufferReader::u32() {
  if (!take(4)) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::optional<double> BufferReader::f64() {
  if (!take(8)) return std::nullopt;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(
                data_[pos_ + static_cast<std::size_t>(i)])
            << (8 * i);
  }
  pos_ += 8;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::optional<std::string> BufferReader::str() {
  const auto len = u32();
  if (!len || !take(*len)) return std::nullopt;
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), *len);
  pos_ += *len;
  return s;
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> seal_payload(std::vector<std::uint8_t> body) {
  const std::uint32_t check = crc32(body);
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<std::uint8_t>(check >> (8 * i)));
  }
  return body;
}

std::optional<std::span<const std::uint8_t>> open_payload(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 4) return std::nullopt;
  const std::span<const std::uint8_t> body = payload.first(payload.size() - 4);
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(payload[body.size() +
                                                 static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (crc32(body) != stored) return std::nullopt;
  return body;
}

}  // namespace alphawan

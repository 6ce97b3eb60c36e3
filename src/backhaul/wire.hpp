// Binary wire codec for backhaul messages: little-endian primitives and
// length-delimited strings, with explicit bounds checking on the read side
// (never trust the peer).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace alphawan {

class BufferWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void f64(double v);
  void str(const std::string& s);  // u32 length + bytes

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Reads fail-soft: each accessor returns nullopt once the buffer is
// exhausted or a length prefix is inconsistent, and the reader latches
// into an error state.
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8();
  [[nodiscard]] std::optional<std::uint16_t> u16();
  [[nodiscard]] std::optional<std::uint32_t> u32();
  [[nodiscard]] std::optional<double> f64();
  [[nodiscard]] std::optional<std::string> str();

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  [[nodiscard]] bool take(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// CRC-32 (IEEE 802.3 polynomial, reflected). Detects every single-bit
// error and all burst errors up to 32 bits, which is what the payload
// integrity trailer below relies on.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

// Payload integrity trailer: protocol payloads travel as [body][u32 CRC].
// The backhaul can truncate or bit-corrupt messages in flight (see
// backhaul/faults.hpp); the trailer turns silent corruption into a clean
// decode failure that the sender's retry path handles.
[[nodiscard]] std::vector<std::uint8_t> seal_payload(
    std::vector<std::uint8_t> body);
// Verifies and strips the trailer. Returns nullopt when the payload is too
// short to carry a trailer or the CRC does not match the body.
[[nodiscard]] std::optional<std::span<const std::uint8_t>> open_payload(
    std::span<const std::uint8_t> payload);

}  // namespace alphawan

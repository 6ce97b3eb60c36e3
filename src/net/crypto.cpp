#include "net/crypto.hpp"

#include <cstring>

namespace alphawan {
namespace {

// FIPS-197 S-box.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

}  // namespace

Aes128::Aes128(const AesKey& key) {
  std::memcpy(round_keys_.data(), key.data(), 16);
  for (int i = 4; i < 44; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, &round_keys_[static_cast<std::size_t>(4 * (i - 1))], 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (int b = 0; b < 4; ++b) {
      round_keys_[static_cast<std::size_t>(4 * i + b)] = static_cast<std::uint8_t>(
          round_keys_[static_cast<std::size_t>(4 * (i - 4) + b)] ^ temp[b]);
    }
  }
}

AesBlock Aes128::encrypt(const AesBlock& plaintext) const {
  AesBlock state = plaintext;
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) {
      state[static_cast<std::size_t>(i)] ^=
          round_keys_[static_cast<std::size_t>(16 * round + i)];
    }
  };
  auto sub_bytes = [&] {
    for (auto& b : state) b = kSbox[b];
  };
  auto shift_rows = [&] {
    // Row r (bytes r, r+4, r+8, r+12) rotated left by r.
    std::uint8_t t = state[1];
    state[1] = state[5]; state[5] = state[9]; state[9] = state[13];
    state[13] = t;
    std::swap(state[2], state[10]);
    std::swap(state[6], state[14]);
    t = state[15];
    state[15] = state[11]; state[11] = state[7]; state[7] = state[3];
    state[3] = t;
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      auto* col = &state[static_cast<std::size_t>(4 * c)];
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const std::uint8_t all = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
      col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
      col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
      col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
      col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
    }
  };

  add_round_key(0);
  for (int round = 1; round < 10; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
  return state;
}

namespace {

AesBlock left_shift_one(const AesBlock& in) {
  AesBlock out{};
  std::uint8_t carry = 0;
  for (int i = 15; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    out[idx] = static_cast<std::uint8_t>((in[idx] << 1) | carry);
    carry = static_cast<std::uint8_t>(in[idx] >> 7);
  }
  return out;
}

void xor_block(AesBlock& a, const AesBlock& b) {
  for (int i = 0; i < 16; ++i) {
    a[static_cast<std::size_t>(i)] ^= b[static_cast<std::size_t>(i)];
  }
}

}  // namespace

AesBlock aes_cmac(const AesKey& key, std::span<const std::uint8_t> message) {
  const Aes128 aes(key);
  // Subkey generation.
  AesBlock l = aes.encrypt(AesBlock{});
  AesBlock k1 = left_shift_one(l);
  if (l[0] & 0x80) k1[15] ^= 0x87;
  AesBlock k2 = left_shift_one(k1);
  if (k1[0] & 0x80) k2[15] ^= 0x87;

  const std::size_t n = message.size();
  const std::size_t full_blocks = n == 0 ? 0 : (n - 1) / 16;
  const std::size_t last_len = n - full_blocks * 16;
  const bool last_complete = n > 0 && last_len == 16;

  AesBlock x{};
  for (std::size_t i = 0; i < full_blocks; ++i) {
    AesBlock block;
    std::memcpy(block.data(), message.data() + i * 16, 16);
    xor_block(x, block);
    x = aes.encrypt(x);
  }
  AesBlock last{};
  if (last_complete) {
    std::memcpy(last.data(), message.data() + full_blocks * 16, 16);
    xor_block(last, k1);
  } else {
    // An empty message may carry a null data() pointer, which memcpy must
    // not receive even with a zero length.
    if (last_len != 0) {
      std::memcpy(last.data(), message.data() + full_blocks * 16, last_len);
    }
    last[last_len] = 0x80;
    xor_block(last, k2);
  }
  xor_block(x, last);
  return aes.encrypt(x);
}

std::vector<std::uint8_t> lorawan_encrypt_payload(
    const AesKey& key, std::uint32_t dev_addr, std::uint32_t fcnt,
    std::uint8_t direction, std::span<const std::uint8_t> payload) {
  const Aes128 aes(key);
  std::vector<std::uint8_t> out(payload.begin(), payload.end());
  const std::size_t blocks = (payload.size() + 15) / 16;
  for (std::size_t i = 0; i < blocks; ++i) {
    AesBlock a{};
    a[0] = 0x01;
    a[5] = direction;
    for (int b = 0; b < 4; ++b) {
      a[static_cast<std::size_t>(6 + b)] =
          static_cast<std::uint8_t>(dev_addr >> (8 * b));
      a[static_cast<std::size_t>(10 + b)] =
          static_cast<std::uint8_t>(fcnt >> (8 * b));
    }
    a[15] = static_cast<std::uint8_t>(i + 1);
    const AesBlock s = aes.encrypt(a);
    const std::size_t offset = i * 16;
    const std::size_t len = std::min<std::size_t>(16, payload.size() - offset);
    for (std::size_t b = 0; b < len; ++b) out[offset + b] ^= s[b];
  }
  return out;
}

std::uint32_t lorawan_mic(const AesKey& nwk_skey, std::uint32_t dev_addr,
                          std::uint32_t fcnt, std::uint8_t direction,
                          std::span<const std::uint8_t> msg) {
  std::vector<std::uint8_t> b0_msg(16 + msg.size());
  b0_msg[0] = 0x49;
  b0_msg[5] = direction;
  for (int b = 0; b < 4; ++b) {
    b0_msg[static_cast<std::size_t>(6 + b)] =
        static_cast<std::uint8_t>(dev_addr >> (8 * b));
    b0_msg[static_cast<std::size_t>(10 + b)] =
        static_cast<std::uint8_t>(fcnt >> (8 * b));
  }
  b0_msg[15] = static_cast<std::uint8_t>(msg.size());
  std::memcpy(b0_msg.data() + 16, msg.data(), msg.size());
  const AesBlock mac = aes_cmac(nwk_skey, b0_msg);
  return static_cast<std::uint32_t>(mac[0]) |
         (static_cast<std::uint32_t>(mac[1]) << 8) |
         (static_cast<std::uint32_t>(mac[2]) << 16) |
         (static_cast<std::uint32_t>(mac[3]) << 24);
}

}  // namespace alphawan

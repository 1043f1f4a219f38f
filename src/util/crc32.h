// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for durable-record integrity.
//
// Checkpoint and queue files carry a per-record CRC trailer so a torn write, a
// truncated tail, or a flipped bit is *detected* on load and the damaged
// suffix can be dropped (salvage) instead of silently resuming from
// corrupt verdicts.  This is the ubiquitous reflected CRC-32 -- the same
// one zlib/PNG/Ethernet use -- so trailers can be cross-checked with any
// standard tool.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace xtest::util {

namespace detail {

inline const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace detail

/// CRC-32 of `len` bytes at `data`.  `crc` chains incremental updates:
/// pass the previous return value to continue a running checksum.
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t crc = 0) {
  const auto& table = detail::crc32_table();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

inline std::uint32_t crc32(std::string_view s, std::uint32_t crc = 0) {
  return crc32(s.data(), s.size(), crc);
}

/// The CRC-32 of `covered` as 8 lowercase hex digits.
inline std::string crc_hex(std::string_view covered) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc32(covered));
  return buf;
}

/// The text-record trailer line "crc <8 hex digits>" over `covered`.
inline std::string crc_line(std::string_view covered) {
  return "crc " + crc_hex(covered);
}

/// Parses a crc_line(); false unless `line` is exactly "crc " followed by
/// 8 lowercase hex digits.
inline bool parse_crc_line(const std::string& line, std::uint32_t& out) {
  if (line.size() != 12 || line.rfind("crc ", 0) != 0 ||
      line.find_first_not_of("0123456789abcdef", 4) != std::string::npos)
    return false;
  out = static_cast<std::uint32_t>(std::stoul(line.substr(4), nullptr, 16));
  return true;
}

}  // namespace xtest::util

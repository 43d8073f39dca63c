// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
//
// Every checksum in the repo is taken here, through util/frame: the svc
// write-ahead log (RSMWAL01) and the matchd wire protocol (RSMNET01) frame
// each record or message with the CRC of its payload. A torn or corrupted
// frame fails the check, so WAL recovery stops cleanly at the last good
// record and the network decoder closes the connection instead of acting
// on garbage. The incremental form (pass the previous crc back in) lets
// callers checksum a record assembled in pieces without staging it into
// one buffer.
//
// The kernel is slicing-by-8 (Kounavis & Berry, ISCC 2005): eight
// 256-entry tables (8 KiB, built at compile time) fold eight input bytes
// per step, read as two 32-bit words assembled from bytes with shifts, so
// the result depends on neither alignment nor host byte order. A
// byte-at-a-time step finishes the last 0-7 bytes. It computes the same
// function as a byte-at-a-time loop, ~4.5x faster on frame-sized payloads
// (DESIGN.md §7 has the per-frame costs), so every frame keeps its bytes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace resmatch::util {

/// One-shot or incremental CRC-32. For incremental use, feed the previous
/// return value back as `crc` (start with 0).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len,
                                  std::uint32_t crc = 0) noexcept;

}  // namespace resmatch::util

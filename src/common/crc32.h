// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
//
// Used by the v3 checkpoint container (core/vos_io.h) to checksum each
// section independently, so a torn or bit-rotted checkpoint names the
// damaged section instead of failing with a whole-file mismatch. CRC32
// also catches the burst errors (torn tail, zero-filled page) that an
// XOR fold can cancel out.

#pragma once

#include <cstddef>
#include <cstdint>

namespace vos {

/// CRC-32 of `size` bytes at `data`. `seed` chains incremental updates:
/// Crc32(b, n1+n2) == Crc32(b + n1, n2, Crc32(b, n1)).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace vos

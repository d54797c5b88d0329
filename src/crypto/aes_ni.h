// AES-NI backend: hardware AES round instructions (AESENC/AESDEC), used by
// crypto::Aes when the CPU supports them (runtime-detected; see
// Aes::active_tier in aes.h). Internal to the crypto layer — callers go
// through Aes, which owns tier dispatch and the key schedules.
//
// Key schedules are passed as the FIPS-197 byte serialization of the
// expanded keys: 16 bytes per round key, (rounds + 1) keys. The decryption
// schedule must be the "equivalent inverse cipher" schedule (reversed round
// order, InvMixColumns applied to the middle keys) — exactly what
// Aes::ExpandKey already computes for the table tier, so both tiers share
// one key-expansion path.
#ifndef STEGFS_CRYPTO_AES_NI_H_
#define STEGFS_CRYPTO_AES_NI_H_

#include <cstddef>
#include <cstdint>

namespace stegfs {
namespace crypto {
namespace aesni {

// True when the CPU executes AES instructions (false on non-x86 builds).
bool Supported();

// Single 16-byte block. in and out may alias.
void Encrypt1(const uint8_t* enc_ks, int rounds, const uint8_t in[16],
              uint8_t out[16]);
void Decrypt1(const uint8_t* dec_ks, int rounds, const uint8_t in[16],
              uint8_t out[16]);

// n independent 16-byte blocks, pipelined four at a time (the AES units
// are deeply pipelined; independent blocks hide the ~4-cycle round
// latency). in/out may be the same buffer.
void EncryptEcb(const uint8_t* enc_ks, int rounds, const uint8_t* in,
                uint8_t* out, size_t n);

// CBC encryption of `lanes` (1..8) independent chains of `cells` 16-byte
// cells each, in one fused pass: lane l reads in[l], writes out[l] and
// chains from ivs + 16 * l. The chains advance in lock step, so the lanes
// keep the AES pipeline full although each chain is sequential. The round
// keys are loaded once per call and every chain value stays in a
// register. Per lane, in and out must be the same buffer or not overlap.
void EncryptCbcLanes(const uint8_t* enc_ks, int rounds, const uint8_t* ivs,
                     const uint8_t* const* in, uint8_t* const* out,
                     size_t lanes, size_t cells);

// CBC decryption of n cells in one fused pass: out[i] = D(in[i]) ^ in[i-1]
// (the iv for i = 0), eight cells in flight at a time, each group's chain
// values loaded before any of its output is stored. in and out may be the
// same buffer.
void DecryptCbc(const uint8_t* dec_ks, int rounds, const uint8_t iv[16],
                const uint8_t* in, uint8_t* out, size_t n);

}  // namespace aesni
}  // namespace crypto
}  // namespace stegfs

#endif  // STEGFS_CRYPTO_AES_NI_H_

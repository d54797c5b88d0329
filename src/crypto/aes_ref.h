// AesRef: a deliberately naive, byte-wise AES implementation transcribed
// from the FIPS 197 pseudo-code (state matrix, per-byte SubBytes/ShiftRows/
// MixColumns loops). It is the verification reference for the optimized
// tiers in crypto::Aes (T-tables, AES-NI): the equivalence tests check
// every tier against this code and against the published test vectors.
// Never used on a hot path.
#ifndef STEGFS_CRYPTO_AES_REF_H_
#define STEGFS_CRYPTO_AES_REF_H_

#include <cstddef>
#include <cstdint>

namespace stegfs {
namespace crypto {

class AesRef {
 public:
  // key_len must be 16, 24 or 32 bytes (AES-128/192/256).
  AesRef(const uint8_t* key, size_t key_len);

  // Encrypts/decrypts exactly 16 bytes. in and out may alias.
  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  // The "equivalent inverse cipher" decryption schedule (FIPS 197 section
  // 5.3.5) in byte order, 16 * (rounds() + 1) bytes: round keys reversed,
  // InvMixColumns applied to the middle ones as sixteen GF(2^8) products
  // per word. The reference for Aes::decryption_schedule(), which builds
  // the same bytes from the decryption T-tables.
  void EquivalentInverseSchedule(uint8_t* out) const;

  int rounds() const { return rounds_; }

 private:
  // Round keys as FIPS-197 byte serialization: 16 bytes per round key.
  uint8_t round_keys_[16 * 15];
  int rounds_;
};

}  // namespace crypto
}  // namespace stegfs

#endif  // STEGFS_CRYPTO_AES_REF_H_

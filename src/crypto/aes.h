// AES-128/192/256 block cipher (FIPS 197) with tiered backends.
//
// The paper (section 4, API 1) encrypts hidden-object blocks with an
// AES-based block cipher; we use AES-256 keys derived from the File Access
// Key. Chaining modes live in block_crypter.h.
//
// Two dispatch tiers, selected once at process start and overridable for
// tests/benchmarks:
//   kAesNi - hardware AES round instructions (runtime cpuid detection),
//            pipelined four blocks at a time in the batch entry points
//   kTable - the classic fused T-table software implementation
// A third, byte-wise FIPS-197 transcription lives in aes_ref.h as the
// verification reference; it is never dispatched to.
#ifndef STEGFS_CRYPTO_AES_H_
#define STEGFS_CRYPTO_AES_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace stegfs {
namespace crypto {

enum class AesTier { kTable, kAesNi };

// The tier every Aes instance currently dispatches to. Defaults to kAesNi
// when the CPU supports it, kTable otherwise.
AesTier ActiveAesTier();
// Short stable name of the active tier: "aes-ni" or "t-table". The pointer
// is a static string (safe to hand across the C API).
const char* AesTierName();
// Overrides the tier (process-wide). Returns false — and changes nothing —
// if the requested tier is unsupported on this CPU.
bool SetAesTier(AesTier tier);

// Expanded-key AES context. Construct once per key, then encrypt/decrypt any
// number of 16-byte blocks.
class Aes {
 public:
  // key_len must be 16, 24 or 32 bytes (AES-128/192/256).
  Aes(const uint8_t* key, size_t key_len);
  explicit Aes(const std::string& key)
      : Aes(reinterpret_cast<const uint8_t*>(key.data()), key.size()) {}

  // Encrypts/decrypts exactly 16 bytes. in and out may alias.
  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  // ECB batch: n independent 16-byte blocks laid out back to back. The
  // AES-NI tier pipelines four blocks per dispatch; the table tier loops.
  // in and out may be the same buffer (per-block aliasing).
  void EncryptBlocksEcb(const uint8_t* in, uint8_t* out, size_t n) const;

  // CBC decryption of n 16-byte cells chained from `iv`:
  // out[i] = D(in[i]) ^ in[i-1], with iv in place of in[-1]. No copy and
  // no allocation: the AES-NI tier runs one fused pass with eight cells in
  // flight; the table tier walks the cells backwards, so each chain cell
  // is read before it is overwritten. in and out must be the same buffer
  // or not overlap at all.
  void DecryptCbc(const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                  size_t n) const;

  // Four independent 16-byte blocks at unrelated addresses — the lane
  // primitive BlockCrypter uses to interleave four CBC chains (one per
  // device block) through the hardware pipeline. in[i]/out[i] may alias.
  void Encrypt4(const uint8_t* const in[4], uint8_t* const out[4]) const;

  int rounds() const { return rounds_; }
  // The decryption ("equivalent inverse cipher") schedule in FIPS-197 byte
  // order, 16 * (rounds() + 1) bytes — exposed for the equivalence tests
  // against AesRef::EquivalentInverseSchedule.
  const uint8_t* decryption_schedule() const { return dec_ks_; }

 private:
  void ExpandKey(const uint8_t* key, size_t key_len);
  void EncryptBlockTable(const uint8_t in[16], uint8_t out[16]) const;
  void DecryptBlockTable(const uint8_t in[16], uint8_t out[16]) const;

  // Round keys, 4 words per round plus the initial AddRoundKey, and the
  // "equivalent inverse cipher" schedule for table-driven decryption.
  uint32_t round_keys_[60];
  uint32_t dec_round_keys_[60];
  // The same two schedules in FIPS-197 byte order, for the AES-NI tier.
  alignas(16) uint8_t enc_ks_[240];
  alignas(16) uint8_t dec_ks_[240];
  int rounds_;
};

}  // namespace crypto
}  // namespace stegfs

#endif  // STEGFS_CRYPTO_AES_H_

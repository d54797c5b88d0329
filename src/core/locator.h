// The keyed header locator (paper sections 3.1 and 4).
//
// Creation: hash(name || key) seeds a recursive-SHA-256 generator of data-
// region block numbers; the first candidate that is FREE in the bitmap
// becomes the header block.
//
// Retrieval: the same candidate sequence is probed; for each candidate that
// is ALLOCATED in the bitmap, the block is read, its 32-byte signature
// prefix decrypted with the key and compared against SHA-256(name || key).
// Free candidates are skipped (they were occupied at creation time, or
// have been freed since — either way the header cannot be there now...
// unless it was freed, which means the object was deleted). A probe limit
// bounds the cost of looking up objects that do not exist; with the volume
// never 100% full, the real header is found long before the limit.
#ifndef STEGFS_CORE_LOCATOR_H_
#define STEGFS_CORE_LOCATOR_H_

#include <cstdint>
#include <string>

#include "cache/buffer_cache.h"
#include "crypto/block_crypter.h"
#include "crypto/prng.h"
#include "fs/bitmap.h"
#include "fs/layout.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

// Deterministic candidate sequence for (physical_name, access_key).
class CandidateSequence {
 public:
  CandidateSequence(const std::string& physical_name,
                    const std::string& access_key, const Layout& layout);

  // Next candidate block number, always within the data region.
  uint64_t Next();

 private:
  crypto::HashChainPrng prng_;
  uint64_t data_start_;
};

struct LocateResult {
  uint64_t header_block = 0;
  uint32_t probes = 0;  // candidates examined (for the A3 ablation)
};

// Volume-wide locator instruments; StegFs registers them in the mount's
// registry. The header blocks the probes read are counted by the cache as
// lookups; the prefix decrypts are not block decrypts and stay out of
// stegfs_crypto_blocks_decrypted_total.
struct LocatorStats {
  obs::Counter probes;            // candidates drawn (claims and finds)
  obs::Counter signature_checks;  // allocated candidates prefix-decrypted

  void RegisterWith(obs::MetricsRegistry* reg) const {
    reg->RegisterCounter("stegfs_locator_probes_total",
                         "Header locator candidates drawn", &probes);
    reg->RegisterCounter("stegfs_locator_signature_checks_total",
                         "Allocated candidates whose signature was checked",
                         &signature_checks);
  }
};

class HeaderLocator {
 public:
  // `stats` may be null: nothing is counted then.
  HeaderLocator(BufferCache* cache, BlockBitmap* bitmap, const Layout& layout,
                uint32_t probe_limit, LocatorStats* stats = nullptr)
      : cache_(cache),
        bitmap_(bitmap),
        layout_(layout),
        probe_limit_(probe_limit),
        stats_(stats) {}

  // Finds a free block for a new header (first free candidate) and marks it
  // allocated in the bitmap.
  StatusOr<LocateResult> ClaimHeaderBlock(const std::string& physical_name,
                                          const std::string& access_key);

  // Finds an existing header by signature match. `crypter` must be keyed by
  // the same access key. NotFound after probe_limit candidates.
  StatusOr<LocateResult> FindHeader(const std::string& physical_name,
                                    const std::string& access_key,
                                    const crypto::BlockCrypter& crypter);

 private:
  BufferCache* cache_;
  BlockBitmap* bitmap_;
  Layout layout_;
  uint32_t probe_limit_;
  LocatorStats* stats_;
};

}  // namespace stegfs

#endif  // STEGFS_CORE_LOCATOR_H_

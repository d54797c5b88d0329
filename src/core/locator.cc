#include "core/locator.h"

#include <vector>

#include "crypto/keys.h"

namespace stegfs {

CandidateSequence::CandidateSequence(const std::string& physical_name,
                                     const std::string& access_key,
                                     const Layout& layout)
    : prng_(crypto::LocatorSeed(physical_name, access_key),
            layout.data_blocks()),
      data_start_(layout.data_start) {}

uint64_t CandidateSequence::Next() { return data_start_ + prng_.Next(); }

StatusOr<LocateResult> HeaderLocator::ClaimHeaderBlock(
    const std::string& physical_name, const std::string& access_key) {
  CandidateSequence seq(physical_name, access_key, layout_);
  LocateResult result;
  for (uint32_t i = 0; i < probe_limit_; ++i) {
    uint64_t candidate = seq.Next();
    ++result.probes;
    if (stats_ != nullptr) stats_->probes.Increment();
    if (!bitmap_->IsAllocated(candidate)) {
      Status claimed = bitmap_->Allocate(candidate);
      if (claimed.IsFailedPrecondition()) {
        // Lost an allocation race: another session claimed the candidate
        // between the probe and the test-and-set. The next candidate is as
        // good as this one was.
        continue;
      }
      STEGFS_RETURN_IF_ERROR(claimed);
      result.header_block = candidate;
      return result;
    }
  }
  return Status::NoSpace("no free candidate block for hidden header");
}

StatusOr<LocateResult> HeaderLocator::FindHeader(
    const std::string& physical_name, const std::string& access_key,
    const crypto::BlockCrypter& crypter) {
  CandidateSequence seq(physical_name, access_key, layout_);
  crypto::Sha256Digest expect =
      crypto::FileSignature(physical_name, access_key);
  std::vector<uint8_t> buf(layout_.block_size);
  crypto::Sha256Digest signature;
  LocateResult result;
  for (uint32_t i = 0; i < probe_limit_; ++i) {
    uint64_t candidate = seq.Next();
    ++result.probes;
    if (stats_ != nullptr) stats_->probes.Increment();
    if (!bitmap_->IsAllocated(candidate)) continue;
    STEGFS_RETURN_IF_ERROR(cache_->Read(candidate, buf.data()));
    // The signature is the header's first two CBC cells, and those depend
    // only on the ESSIV IV and ciphertext cells 0-1: decrypting just that
    // prefix is the same test as decrypting the block. A match is re-read
    // whole through the object's store by the caller.
    crypter.DecryptPrefix(candidate, buf.data(), signature.data(),
                          signature.size());
    if (stats_ != nullptr) stats_->signature_checks.Increment();
    if (signature == expect) {
      result.header_block = candidate;
      return result;
    }
  }
  return Status::NotFound("hidden object not found (name/key mismatch?)");
}

}  // namespace stegfs

// BlockMapper: translates (inode, file block index) -> device block through
// the classic direct / single-indirect / double-indirect walk, allocating or
// freeing blocks on demand. Parameterized on BlockStore + BlockAllocator so
// the identical logic drives plain files, directories AND encrypted hidden
// files (whose indirect blocks are themselves encrypted and pool-allocated).
#ifndef STEGFS_FS_BLOCK_MAPPER_H_
#define STEGFS_FS_BLOCK_MAPPER_H_

#include <cstdint>
#include <vector>

#include "fs/block_store.h"
#include "fs/inode.h"
#include "util/status.h"
#include "util/statusor.h"

namespace stegfs {

class BlockMapper {
 public:
  explicit BlockMapper(uint32_t block_size)
      : block_size_(block_size), ptrs_per_block_(block_size / 4) {}

  // Largest addressable file, in blocks.
  uint64_t MaxFileBlocks() const {
    return kDirectPointers + ptrs_per_block_ +
           static_cast<uint64_t>(ptrs_per_block_) * ptrs_per_block_;
  }

  // Device block holding file block `idx`, or NotFound for a hole.
  StatusOr<uint64_t> Map(const Inode& inode, uint64_t idx, BlockStore* store);

  // Resolves file blocks [first, first + count) into out[0, count): the
  // device block, or kNullBlock for a hole. Each pointer block the range
  // touches is read from the store once, so a 256-block extent past the
  // direct pointers costs one read (and, on a hidden file, one decrypt)
  // per pointer block rather than one per file block.
  Status MapRange(const Inode& inode, uint64_t first, size_t count,
                  BlockStore* store, uint64_t* out);

  // Like Map but allocates missing data/indirect blocks. Sets *inode_dirty
  // when the inode's pointer fields changed, and *allocated (when given)
  // to whether the data block itself was allocated by this call.
  StatusOr<uint64_t> MapOrAllocate(Inode* inode, uint64_t idx,
                                   BlockStore* store, BlockAllocator* alloc,
                                   bool* inode_dirty,
                                   bool* allocated = nullptr);

  // Repoints file block `idx` at `new_block` WITHOUT freeing the block it
  // previously mapped to — the self-healing path: the old block may have
  // been claimed by a plain allocation, and freeing a block we no longer
  // own would corrupt someone else's data. NotFound when `idx` is a hole.
  Status Remap(Inode* inode, uint64_t idx, uint64_t new_block,
               BlockStore* store, bool* inode_dirty);

  // Frees all data blocks with file index >= first_kept and any indirect
  // blocks that become empty. (first_kept = 0 frees everything.)
  Status FreeFrom(Inode* inode, uint64_t first_kept, BlockStore* store,
                  BlockAllocator* alloc);

  // Appends every device block reachable from `inode` — data AND indirect
  // blocks — to `out`. Used by backup and the space accountant.
  Status CollectBlocks(const Inode& inode, BlockStore* store,
                       std::vector<uint64_t>* out) const;

  // Metadata-write recorder: while non-null, every indirect pointer block
  // this mapper writes (allocation, pointer update, truncate zeroing) is
  // recorded into *sink BEFORE the write reaches the store. PlainFs's
  // journal transactions use it to capture the pointer blocks an operation
  // touched — in-place pointer rewrites are exactly the tear ordered-data
  // writeback cannot protect, so they must ride the journal record — and
  // the log's on_record hook parks the block against concurrent flushers.
  // The recorder is txn-scoped: set before the operation, cleared after;
  // the mapper stays single-owner per thread (PlainFs's metadata lock /
  // the per-object lock).
  void set_meta_recorder(MetaWriteLog* sink) { meta_recorder_ = sink; }

 private:
  Status ReadPointerBlock(BlockStore* store, uint64_t block,
                          std::vector<uint32_t>* ptrs) const;
  Status WritePointerBlock(BlockStore* store, uint64_t block,
                           const std::vector<uint32_t>& ptrs) const;
  StatusOr<uint64_t> AllocateZeroedPointerBlock(BlockStore* store,
                                                BlockAllocator* alloc) const;

  uint32_t block_size_;
  uint32_t ptrs_per_block_;
  MetaWriteLog* meta_recorder_ = nullptr;
};

}  // namespace stegfs

#endif  // STEGFS_FS_BLOCK_MAPPER_H_

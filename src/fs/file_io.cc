#include "fs/file_io.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

namespace stegfs {

Status FileIo::Read(const Inode& inode, uint64_t offset, uint64_t n,
                    BlockStore* store, std::string* out) {
  return ReadImpl(const_cast<Inode*>(&inode), offset, n, store,
                  /*alloc=*/nullptr, /*inode_dirty=*/nullptr, out);
}

Status FileIo::ReadVerified(Inode* inode, uint64_t offset, uint64_t n,
                            BlockStore* store, BlockAllocator* alloc,
                            bool* inode_dirty, std::string* out) {
  return ReadImpl(inode, offset, n, store, alloc, inode_dirty, out);
}

Status FileIo::ReadImpl(Inode* inode, uint64_t offset, uint64_t n,
                        BlockStore* store, BlockAllocator* alloc,
                        bool* inode_dirty, std::string* out) {
  if (offset >= inode->size) return Status::OK();
  n = std::min(n, inode->size - offset);
  out->reserve(out->size() + n);
  const bool verify = redundancy_ != nullptr && alloc != nullptr;

  // One chunk = up to kMaxBatchBlocks file blocks: resolve the mapping for
  // the whole chunk (one read per pointer block it touches), fetch every
  // mapped block with one vectored store read, then assemble bytes (holes
  // read as zeros).
  std::vector<uint64_t> mapping;
  std::vector<uint64_t> device_blocks;
  std::vector<uint64_t> file_idxs;
  std::vector<uint8_t> buf;
  uint64_t total_blocks = 0;
  while (n > 0) {
    const uint64_t first_idx = offset / block_size_;
    const size_t count = static_cast<size_t>(std::min<uint64_t>(
        kMaxBatchBlocks, (offset + n - 1) / block_size_ - first_idx + 1));
    mapping.resize(count);
    STEGFS_RETURN_IF_ERROR(
        mapper_.MapRange(*inode, first_idx, count, store, mapping.data()));
    device_blocks.clear();
    file_idxs.clear();
    for (size_t i = 0; i < count; ++i) {
      if (mapping[i] == kNullBlock) continue;
      device_blocks.push_back(mapping[i]);
      file_idxs.push_back(first_idx + i);
    }

    total_blocks += count;
    // Submit the chunk ascending by LBA: the io_uring backend then
    // issues monotonic offsets and the FileBlockDevice coalescer sees
    // every contiguous run the mapping contains. Plain contiguous
    // extents are already ascending (the sort is a no-op); hidden
    // extents arrive in logical order, which random placement makes
    // device-random. `slot_of` maps each logical mapped index to its
    // position in the sorted transfer for reassembly below.
    std::vector<uint32_t> order(device_blocks.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return device_blocks[a] < device_blocks[b];
    });
    std::vector<uint64_t> sorted_blocks(device_blocks.size());
    std::vector<uint32_t> slot_of(device_blocks.size());
    for (size_t j = 0; j < order.size(); ++j) {
      sorted_blocks[j] = device_blocks[order[j]];
      slot_of[order[j]] = static_cast<uint32_t>(j);
    }
    buf.resize(sorted_blocks.size() * block_size_);
    if (!sorted_blocks.empty()) {
      STEGFS_RETURN_IF_ERROR(store->ReadBlocks(
          sorted_blocks.data(), sorted_blocks.size(), buf.data()));
    }

    // Share verification rides the batch: every mapped whole block of the
    // chunk is checked (and healed in place) before a byte is assembled.
    if (verify && !device_blocks.empty()) {
      std::vector<ExtentRedundancy::ReadBlockRef> refs(device_blocks.size());
      for (size_t j = 0; j < device_blocks.size(); ++j) {
        refs[j] = {file_idxs[j], device_blocks[j],
                   buf.data() + slot_of[j] * block_size_};
      }
      RedundancyIoCtx ctx{inode, store, alloc, &mapper_, inode_dirty};
      STEGFS_RETURN_IF_ERROR(
          redundancy_->OnExtentRead(ctx, refs.data(), refs.size()));
    }

    size_t mapped_i = 0;
    for (size_t i = 0; i < count; ++i) {
      const uint32_t in_block = static_cast<uint32_t>(offset % block_size_);
      const uint32_t take = static_cast<uint32_t>(
          std::min<uint64_t>(n, block_size_ - in_block));
      if (mapping[i] == kNullBlock) {
        out->append(take, '\0');
      } else {
        const uint8_t* src =
            buf.data() + slot_of[mapped_i] * block_size_ + in_block;
        out->append(reinterpret_cast<const char*>(src), take);
        ++mapped_i;
      }
      offset += take;
      n -= take;
    }
  }

  // Hint the window after the extent — but only for multi-block extents:
  // a block-at-a-time reader would enqueue one prefetch task per block,
  // all chasing the block the next call is about to demand-read anyway,
  // and the task overhead swamps the win (measured 0.6x on one core).
  if (readahead_ > 0 && total_blocks >= 2) {
    IssueReadahead(*inode, offset / block_size_ + (offset % block_size_ != 0),
                   store);
  }
  return Status::OK();
}

void FileIo::IssueReadahead(const Inode& inode, uint64_t next_idx,
                            BlockStore* store) {
  uint64_t file_blocks = (inode.size + block_size_ - 1) / block_size_;
  // The window is the next readahead_ FILE blocks — holes inside it yield
  // nothing but do not extend the scan, so a sparse tail costs at most one
  // window's mapping per read, never a walk of the whole file.
  uint64_t window_end = std::min(file_blocks, next_idx + readahead_);
  if (next_idx >= window_end) return;
  std::vector<uint64_t> blocks(window_end - next_idx);
  // A mapping error skips the hint; the demand path reports it.
  if (!mapper_.MapRange(inode, next_idx, blocks.size(), store, blocks.data())
           .ok()) {
    return;
  }
  blocks.erase(std::remove(blocks.begin(), blocks.end(),
                           static_cast<uint64_t>(kNullBlock)),
               blocks.end());
  if (!blocks.empty()) store->Prefetch(blocks.data(), blocks.size());
}

Status FileIo::Write(Inode* inode, uint64_t offset, std::string_view data,
                     BlockStore* store, BlockAllocator* alloc,
                     bool* inode_dirty) {
  uint64_t max_bytes = mapper_.MaxFileBlocks() * block_size_;
  if (offset + data.size() > max_bytes) {
    return Status::InvalidArgument("write exceeds maximum file size");
  }
  // Coalesce per-operation: indirect-pointer blocks are touched on every
  // allocation but must reach the device only once per logical write.
  CoalescingStore coalesced(store);
  std::vector<uint8_t> buf(block_size_);
  size_t written = 0;
  while (written < data.size()) {
    uint64_t pos = offset + written;
    uint64_t block_idx = pos / block_size_;
    uint32_t in_block = static_cast<uint32_t>(pos % block_size_);
    uint32_t take = static_cast<uint32_t>(std::min<uint64_t>(
        data.size() - written, block_size_ - in_block));
    bool fresh = false;
    STEGFS_ASSIGN_OR_RETURN(
        uint64_t device_block,
        mapper_.MapOrAllocate(inode, block_idx, &coalesced, alloc,
                              inode_dirty, &fresh));
    if (take < block_size_) {
      if (fresh) {
        // A block allocated just now holds its last owner's bytes (or, on
        // a hidden file, random fill): nothing of it is file content.
        std::fill(buf.begin(), buf.end(), 0);
      } else {
        // Partial block: read-modify-write (block may hold older data).
        STEGFS_RETURN_IF_ERROR(coalesced.ReadBlock(device_block, buf.data()));
        ZeroPastEof(inode->size, block_idx, buf.data());
      }
    }
    std::memcpy(buf.data() + in_block, data.data() + written, take);
    STEGFS_RETURN_IF_ERROR(coalesced.WriteBlock(device_block, buf.data()));
    written += take;
  }
  STEGFS_RETURN_IF_ERROR(coalesced.Flush());
  if (offset + data.size() > inode->size) {
    inode->size = offset + data.size();
    *inode_dirty = true;
  }
  if (!data.empty()) {
    inode->mtime++;
    *inode_dirty = true;
  }
  // Parity rides behind the data batch: re-encode every stripe the write
  // touched, now that the new block contents are visible in the store.
  if (redundancy_ != nullptr && !data.empty()) {
    RedundancyIoCtx ctx{inode, store, alloc, &mapper_, inode_dirty};
    STEGFS_RETURN_IF_ERROR(redundancy_->OnExtentWrite(
        ctx, offset / block_size_,
        (offset + data.size() - 1) / block_size_));
  }
  return Status::OK();
}

Status FileIo::Truncate(Inode* inode, uint64_t new_size, BlockStore* store,
                        BlockAllocator* alloc, bool* inode_dirty) {
  if (new_size >= inode->size) {
    if (new_size != inode->size) {
      inode->size = new_size;  // grow: reads of the gap return zeros (hole)
      *inode_dirty = true;
    }
    return Status::OK();
  }
  uint64_t first_kept = (new_size + block_size_ - 1) / block_size_;
  STEGFS_RETURN_IF_ERROR(mapper_.FreeFrom(inode, first_kept, store, alloc));
  inode->size = new_size;
  inode->mtime++;
  *inode_dirty = true;
  RedundancyIoCtx ctx{inode, store, alloc, &mapper_, inode_dirty};
  if (redundancy_ != nullptr) {
    STEGFS_RETURN_IF_ERROR(redundancy_->OnTruncate(ctx, first_kept));
  }
  if (new_size % block_size_ == 0) return Status::OK();

  // Zero the cut-off tail of the last kept block, so a later grow reads
  // zeros there rather than the bytes the truncate dropped.
  const uint64_t last = new_size / block_size_;
  auto mapped = mapper_.Map(*inode, last, store);
  if (!mapped.ok()) {
    return mapped.status().IsNotFound() ? Status::OK() : mapped.status();
  }
  std::vector<uint8_t> buf(block_size_);
  STEGFS_RETURN_IF_ERROR(store->ReadBlock(*mapped, buf.data()));
  ZeroPastEof(new_size, last, buf.data());
  STEGFS_RETURN_IF_ERROR(store->WriteBlock(*mapped, buf.data()));
  // After OnTruncate, so the stripe record the re-encode verifies the
  // block's siblings against is already the truncated one.
  if (redundancy_ != nullptr) {
    STEGFS_RETURN_IF_ERROR(redundancy_->OnExtentWrite(ctx, last, last));
  }
  return Status::OK();
}

void FileIo::ZeroPastEof(uint64_t size, uint64_t block_idx,
                         uint8_t* block) const {
  const uint64_t start = block_idx * block_size_;
  if (size >= start + block_size_) return;
  const uint64_t keep = size > start ? size - start : 0;
  std::memset(block + keep, 0, block_size_ - keep);
}

}  // namespace stegfs

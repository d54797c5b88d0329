#include "capi/steg_api.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "blockdev/file_block_device.h"
#include "core/backup.h"
#include "core/stegfs.h"
#include "crypto/aes.h"
#include "crypto/gf256_simd.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "fault/fault_injection_device.h"

using stegfs::Status;
using stegfs::StatusCode;

struct stegfs_volume {
  std::unique_ptr<stegfs::BlockDevice> device;
  // steg_mount_faulty mounts only: the injection layer above `device`.
  // Declared after it (destroyed first), before fs (destroyed after it).
  std::unique_ptr<stegfs::fault::FaultInjectionBlockDevice> fault_device;
  std::unique_ptr<stegfs::StegFs> fs;
};

namespace {

// Per-thread, so concurrent failures on one handle cannot clobber each
// other's messages (steg_strerror's documented contract).
thread_local std::string t_last_error;

int CodeOf(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOk:
      return STEG_OK;
    case StatusCode::kNotFound:
      return STEG_ERR_NOT_FOUND;
    case StatusCode::kCorruption:
      return STEG_ERR_CORRUPTION;
    case StatusCode::kInvalidArgument:
      return STEG_ERR_INVALID;
    case StatusCode::kIOError:
      return STEG_ERR_IO;
    case StatusCode::kAlreadyExists:
      return STEG_ERR_EXISTS;
    case StatusCode::kNoSpace:
      return STEG_ERR_NOSPACE;
    case StatusCode::kPermissionDenied:
      return STEG_ERR_DENIED;
    case StatusCode::kDataLoss:
      return STEG_ERR_DATALOSS;
    case StatusCode::kNotSupported:
      return STEG_ERR_UNSUPPORTED;
    case StatusCode::kFailedPrecondition:
      return STEG_ERR_PRECONDITION;
  }
  return STEG_ERR_INVALID;
}

int Fail(stegfs_volume* vol, const Status& s) {
  (void)vol;
  if (!s.ok()) t_last_error = s.ToString();
  return CodeOf(s);
}

// Reads/writes whole host files (for backup images).
Status ReadHostFile(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return Status::IOError("cannot open host file");
  char buf[1 << 16];
  size_t n;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return Status::OK();
}

Status WriteHostFile(const char* path, const std::string& data) {
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) return Status::IOError("cannot create host file");
  size_t n = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (n != data.size()) return Status::IOError("short write to host file");
  return Status::OK();
}

}  // namespace

extern "C" {

int steg_mkfs(const char* image_path, uint32_t block_size,
              uint64_t num_blocks) {
  auto device =
      stegfs::FileBlockDevice::Create(image_path, block_size, num_blocks);
  if (!device.ok()) return CodeOf(device.status());
  stegfs::StegFormatOptions options;
  options.entropy = std::string("capi:") + image_path;
  // C API volumes get a journal region so mounts run crash-consistent
  // (64 blocks ≈ 256 KiB at the default 4 KiB block size).
  options.journal_blocks = 64;
  Status s = stegfs::StegFs::Format(device->get(), options);
  return CodeOf(s);
}

namespace {

// The shared mount policy of every C API handle: async engine, readahead,
// durable when the volume has a ring (falling back otherwise).
stegfs::StatusOr<std::unique_ptr<stegfs::StegFs>> MountOn(
    stegfs::BlockDevice* device) {
  stegfs::StegFsOptions options;
  // C API mounts sit on a real host file: attach the async engine
  // (io_uring when the kernel has it, thread-pool fallback otherwise) so
  // hidden extents pipeline decrypt with in-flight device I/O, and
  // request a 16-block readahead window — one default shared with the
  // benches instead of the old 8-here/16-there split (the sweep behind
  // the choice lives in BENCH_io.json / docs/ARCHITECTURE.md
  // "Readahead"). On single-core hosts the window degrades to off,
  // observably via steg_stats readahead_active/readahead_window.
  options.mount.io_engine = stegfs::IoEngine::kAuto;
  options.mount.readahead_blocks = 16;
  // Durable by default; volumes formatted before the journal existed
  // carry no ring, so fall back to the historical non-durable mount.
  options.mount.durability = stegfs::Durability::kJournal;
  auto fs = stegfs::StegFs::Mount(device, options);
  if (!fs.ok() && fs.status().IsFailedPrecondition()) {
    options.mount.durability = stegfs::Durability::kNone;
    fs = stegfs::StegFs::Mount(device, options);
  }
  return fs;
}

}  // namespace

int steg_mount(const char* image_path, uint32_t block_size,
               stegfs_volume** out) {
  if (out == nullptr) return STEG_ERR_INVALID;
  auto device = stegfs::FileBlockDevice::Open(image_path, block_size);
  if (!device.ok()) return CodeOf(device.status());
  auto vol = std::make_unique<stegfs_volume>();
  vol->device = std::move(device).value();
  auto fs = MountOn(vol->device.get());
  if (!fs.ok()) return CodeOf(fs.status());
  vol->fs = std::move(fs).value();
  *out = vol.release();
  return STEG_OK;
}

int steg_mount_faulty(const char* image_path, uint32_t block_size,
                      const char* fault_spec, stegfs_volume** out) {
  if (out == nullptr) return STEG_ERR_INVALID;
  auto device = stegfs::FileBlockDevice::Open(image_path, block_size);
  if (!device.ok()) return CodeOf(device.status());
  auto vol = std::make_unique<stegfs_volume>();
  vol->device = std::move(device).value();
  vol->fault_device =
      std::make_unique<stegfs::fault::FaultInjectionBlockDevice>(
          vol->device.get());
  if (fault_spec != nullptr && fault_spec[0] != '\0') {
    Status s = vol->fault_device->LoadSchedule(fault_spec);
    if (!s.ok()) {
      t_last_error = s.ToString();
      return CodeOf(s);
    }
  }
  auto fs = MountOn(vol->fault_device.get());
  if (!fs.ok()) return CodeOf(fs.status());
  vol->fs = std::move(fs).value();
  *out = vol.release();
  return STEG_OK;
}

int steg_fault_inject(stegfs_volume* vol, const char* fault_spec) {
  if (vol == nullptr || vol->fault_device == nullptr) return STEG_ERR_INVALID;
  if (fault_spec == nullptr || fault_spec[0] == '\0') {
    vol->fault_device->ClearRules();
    return STEG_OK;
  }
  Status s = vol->fault_device->LoadSchedule(fault_spec);
  if (!s.ok()) t_last_error = s.ToString();
  return CodeOf(s);
}

int steg_unmount(stegfs_volume* vol) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  Status s = vol->fs->Flush();
  // fs must die before the devices it points into, injection layer
  // before the raw device underneath it.
  vol->fs.reset();
  vol->fault_device.reset();
  vol->device.reset();
  delete vol;
  return CodeOf(s);
}

const char* steg_strerror(stegfs_volume* vol) {
  (void)vol;
  return t_last_error.c_str();
}

int steg_stats(stegfs_volume* vol, stegfs_stats* out) {
  if (vol == nullptr || out == nullptr) return STEG_ERR_INVALID;
  stegfs::PlainFs* plain = vol->fs->plain();
  // ONE consistent snapshot of every cumulative counter of the volume —
  // the old field-by-field component reads could tear (hits from before a
  // burst, misses from after it). Gauges and the space report are
  // inherently point-in-time and stay separate.
  stegfs::obs::RegistrySnapshot snap = plain->metrics_registry()->Snapshot();
  stegfs::SpaceReport sr = vol->fs->ReportSpace();
  out->cache_hits = snap.counter("stegfs_cache_hits_total");
  out->cache_misses = snap.counter("stegfs_cache_misses_total");
  out->cache_evictions = snap.counter("stegfs_cache_evictions_total");
  out->cache_writebacks = snap.counter("stegfs_cache_writebacks_total");
  const uint64_t lookups = out->cache_hits + out->cache_misses;
  out->cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(out->cache_hits) /
                         static_cast<double>(lookups);
  out->block_size = sr.block_size;
  out->total_blocks = sr.total_blocks;
  out->metadata_blocks = sr.metadata_blocks;
  out->allocated_blocks = sr.allocated_blocks;
  out->free_blocks = sr.free_blocks;
  out->plain_file_bytes = sr.plain_file_bytes;
  out->cache_batched_reads = snap.counter("stegfs_cache_batched_reads_total");
  out->cache_batched_writes =
      snap.counter("stegfs_cache_batched_writes_total");
  out->cache_prefetched = snap.counter("stegfs_cache_prefetched_total");
  out->cache_prefetch_hits =
      snap.counter("stegfs_cache_prefetch_hits_total");
  out->dev_vectored_blocks =
      snap.counter("stegfs_device_vectored_blocks_total");
  out->dev_coalesced_runs =
      snap.counter("stegfs_device_coalesced_runs_total");
  out->crypto_tier = stegfs::crypto::AesTierName();
  out->sha_tier = stegfs::crypto::ShaTierName();
  out->io_engine = plain->io_engine_name();
  out->io_submitted_batches =
      snap.counter("stegfs_async_submitted_batches_total");
  out->io_completed_batches =
      snap.counter("stegfs_async_completed_batches_total");
  out->io_fixed_buffer_ops =
      snap.counter("stegfs_async_fixed_buffer_ops_total");
  out->io_fixed_buffer_read_ops =
      snap.counter("stegfs_async_fixed_buffer_read_ops_total");
  out->io_inflight_blocks =
      plain->io_engine() != nullptr
          ? plain->io_engine()->stats().inflight_blocks
          : 0;
  out->readahead_active = plain->readahead_blocks() > 0 ? 1 : 0;
  out->readahead_window = plain->readahead_blocks();
  out->durability = plain->durable() ? "journal" : "none";
  out->journal_records =
      snap.counter("stegfs_journal_records_committed_total");
  out->journal_blocks_logged =
      snap.counter("stegfs_journal_blocks_journaled_total");
  out->journal_barrier_syncs =
      snap.counter("stegfs_journal_barrier_syncs_total");
  out->journal_overflows =
      snap.counter("stegfs_journal_overflow_fallbacks_total");
  out->journal_recovered_records = plain->recovery_report().records_replayed;
  out->journal_group_txns = snap.counter("stegfs_journal_group_txns_total");
  out->journal_group_batches =
      snap.counter("stegfs_journal_group_batches_total");
  out->journal_group_merged_blocks =
      snap.counter("stegfs_journal_group_merged_blocks_total");
  out->cache_dirty_epoch = plain->cache()->dirty_epoch();
  out->cache_dirty_blocks = plain->cache()->dirty_count();
  out->gf_tier = stegfs::crypto::GfTierName();
  out->red_stripes_encoded = snap.counter("stegfs_red_stripes_encoded_total");
  out->red_shares_written = snap.counter("stegfs_red_shares_written_total");
  out->red_degraded_reads = snap.counter("stegfs_red_degraded_reads_total");
  out->red_shares_healed = snap.counter("stegfs_red_shares_healed_total");
  out->red_verify_failures =
      snap.counter("stegfs_red_verify_failures_total");
  out->health = plain->health()->state_name();
  out->fault_transient_errors =
      snap.counter("stegfs_fault_transient_errors_total");
  out->fault_retries = snap.counter("stegfs_fault_retries_total");
  out->fault_retry_exhausted =
      snap.counter("stegfs_fault_retry_exhausted_total");
  return STEG_OK;
}

namespace {

// Copies `s` into a malloc'd buffer for a C caller (steg_buffer_free).
int CopyOutBuffer(const std::string& s, char** out, size_t* out_len) {
  char* buf = static_cast<char*>(std::malloc(s.size() + 1));
  if (buf == nullptr) return STEG_ERR_NOSPACE;
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  *out = buf;
  if (out_len != nullptr) *out_len = s.size();
  return STEG_OK;
}

}  // namespace

int steg_metrics_text(stegfs_volume* vol, char** out, size_t* out_len) {
  if (vol == nullptr || out == nullptr) return STEG_ERR_INVALID;
  return CopyOutBuffer(
      vol->fs->plain()->metrics_registry()->TextExposition(), out, out_len);
}

int steg_trace_start(stegfs_volume* vol) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  vol->fs->plain()->trace_recorder()->Start();
  return STEG_OK;
}

int steg_trace_stop(stegfs_volume* vol) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  vol->fs->plain()->trace_recorder()->Stop();
  return STEG_OK;
}

int steg_trace_export(stegfs_volume* vol, char** out, size_t* out_len) {
  if (vol == nullptr || out == nullptr) return STEG_ERR_INVALID;
  return CopyOutBuffer(
      vol->fs->plain()->trace_recorder()->ExportChromeJson(), out, out_len);
}

void steg_buffer_free(char* buf) { std::free(buf); }

void steg_obs_set_enabled(int enabled) {
  stegfs::obs::SetMetricsEnabled(enabled != 0);
}

int steg_obs_enabled(void) {
  return stegfs::obs::MetricsEnabled() ? 1 : 0;
}

int steg_fsck(stegfs_volume* vol, stegfs_fsck_report* out) {
  if (vol == nullptr || out == nullptr) return STEG_ERR_INVALID;
  stegfs::journal::FsckReport report;
  Status s = vol->fs->Fsck(&report);
  if (!s.ok()) return Fail(vol, s);
  out->referenced_blocks = report.referenced_blocks;
  out->unaccounted_blocks = report.unaccounted_blocks;
  out->repaired_refs = report.repaired_refs;
  out->journal_live_records = report.journal_live_records;
  out->journal_scrubbed_blocks = report.journal_scrubbed_blocks;
  out->hidden_objects_scanned = report.hidden_objects_scanned;
  out->hidden_stripes_checked = report.hidden_stripes_checked;
  out->hidden_degraded_stripes = report.hidden_degraded_stripes;
  out->hidden_healed_shares = report.hidden_healed_shares;
  out->hidden_unrecoverable_stripes = report.hidden_unrecoverable_stripes;
  out->clean = report.clean ? 1 : 0;
  return STEG_OK;
}

int steg_health(stegfs_volume* vol, stegfs_health* out) {
  if (vol == nullptr || out == nullptr) return STEG_ERR_INVALID;
  stegfs::PlainFs* plain = vol->fs->plain();
  stegfs::fault::HealthMonitor* health = plain->health();
  stegfs::fault::FaultStats* fs = plain->fault_stats();
  out->state = static_cast<int>(health->state());
  out->state_name = health->state_name();
  out->degraded_transitions = health->degraded_transitions();
  out->readonly_transitions = health->readonly_transitions();
  out->rejected_writes = health->rejected_writes();
  out->transient_errors = fs->transient_errors.value();
  out->persistent_errors = fs->persistent_errors.value();
  out->corruption_errors = fs->corruption_errors.value();
  out->timeout_errors = fs->timeout_errors.value();
  out->retries = fs->retries.value();
  out->retry_successes = fs->retry_successes.value();
  out->retry_exhausted = fs->retry_exhausted.value();
  out->faults_injected =
      vol->fault_device != nullptr ? vol->fault_device->faults_injected() : 0;
  return STEG_OK;
}

int steg_health_reset(stegfs_volume* vol) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  vol->fs->plain()->health()->Reset();
  return STEG_OK;
}

int steg_create(stegfs_volume* vol, const char* uid, const char* objname,
                const char* uak, char objtype) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  stegfs::HiddenType type;
  if (objtype == STEG_TYPE_FILE) {
    type = stegfs::HiddenType::kFile;
  } else if (objtype == STEG_TYPE_DIR) {
    type = stegfs::HiddenType::kDirectory;
  } else {
    return Fail(vol, Status::InvalidArgument("objtype must be 'f' or 'd'"));
  }
  return Fail(vol, vol->fs->StegCreate(uid, objname, uak, type));
}

int steg_create_redundant(stegfs_volume* vol, const char* uid,
                          const char* objname, const char* uak, char objtype,
                          uint32_t policy) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  stegfs::HiddenType type;
  if (objtype == STEG_TYPE_FILE) {
    type = stegfs::HiddenType::kFile;
  } else if (objtype == STEG_TYPE_DIR) {
    type = stegfs::HiddenType::kDirectory;
  } else {
    return Fail(vol, Status::InvalidArgument("objtype must be 'f' or 'd'"));
  }
  stegfs::RedundancyPolicy red;
  const uint32_t kind = policy >> 24;
  const uint8_t k = static_cast<uint8_t>(policy >> 8);
  const uint8_t n = static_cast<uint8_t>(policy);
  if (kind == 1) {
    red = stegfs::RedundancyPolicy::Replicate(n);
  } else if (kind == 2) {
    red = stegfs::RedundancyPolicy::Ida(k, n);
  } else if (policy != 0) {
    return Fail(vol, Status::InvalidArgument("unknown redundancy policy"));
  }
  if (red.enabled() && !red.Valid()) {
    return Fail(vol, Status::InvalidArgument("invalid redundancy policy"));
  }
  return Fail(vol, vol->fs->StegCreate(uid, objname, uak, type, red));
}

int steg_hide(stegfs_volume* vol, const char* uid, const char* pathname,
              const char* objname, const char* uak) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  return Fail(vol, vol->fs->StegHide(uid, pathname, objname, uak));
}

int steg_unhide(stegfs_volume* vol, const char* uid, const char* pathname,
                const char* objname, const char* uak) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  return Fail(vol, vol->fs->StegUnhide(uid, pathname, objname, uak));
}

int steg_connect(stegfs_volume* vol, const char* uid, const char* objname,
                 const char* uak) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  return Fail(vol, vol->fs->StegConnect(uid, objname, uak));
}

int steg_disconnect(stegfs_volume* vol, const char* uid,
                    const char* objname) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  return Fail(vol, vol->fs->StegDisconnect(uid, objname));
}

int steg_getentry(stegfs_volume* vol, const char* uid, const char* objname,
                  const char* uak, const char* entryfile,
                  const uint8_t* pubkey, size_t pubkey_len) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  auto key = stegfs::crypto::RsaPublicKey::Deserialize(
      std::string(reinterpret_cast<const char*>(pubkey), pubkey_len));
  if (!key.ok()) return Fail(vol, key.status());
  return Fail(vol, vol->fs->StegGetEntry(uid, objname, uak, entryfile,
                                         key.value(),
                                         std::string("capi-share:") + uid +
                                             ":" + objname));
}

int steg_addentry(stegfs_volume* vol, const char* uid,
                  const char* entryfile, const uint8_t* privkey,
                  size_t privkey_len, const char* uak) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  auto key = stegfs::crypto::RsaPrivateKey::Deserialize(
      std::string(reinterpret_cast<const char*>(privkey), privkey_len));
  if (!key.ok()) return Fail(vol, key.status());
  return Fail(vol, vol->fs->StegAddEntry(uid, entryfile, key.value(), uak));
}

int steg_backup(stegfs_volume* vol, const char* backupfile) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  auto image = stegfs::StegBackup(vol->fs.get());
  if (!image.ok()) return Fail(vol, image.status());
  return Fail(vol, WriteHostFile(backupfile, image.value()));
}

int steg_recovery(const char* image_path, uint32_t block_size,
                  uint64_t num_blocks, const char* backupfile) {
  std::string image;
  Status s = ReadHostFile(backupfile, &image);
  if (!s.ok()) return CodeOf(s);
  auto device =
      stegfs::FileBlockDevice::Create(image_path, block_size, num_blocks);
  if (!device.ok()) return CodeOf(device.status());
  return CodeOf(stegfs::StegRecover(device->get(), image));
}

int steg_hidden_write(stegfs_volume* vol, const char* uid,
                      const char* objname, const void* data, size_t len) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  return Fail(vol,
              vol->fs->HiddenWriteAll(
                  uid, objname,
                  std::string(static_cast<const char*>(data), len)));
}

int steg_hidden_read(stegfs_volume* vol, const char* uid,
                     const char* objname, void* buf, size_t cap,
                     size_t* out_len) {
  if (vol == nullptr || out_len == nullptr) return STEG_ERR_INVALID;
  auto data = vol->fs->HiddenReadAll(uid, objname);
  if (!data.ok()) return Fail(vol, data.status());
  size_t n = std::min(cap, data->size());
  std::memcpy(buf, data->data(), n);
  *out_len = n;
  return STEG_OK;
}

int steg_plain_write(stegfs_volume* vol, const char* path, const void* data,
                     size_t len) {
  if (vol == nullptr) return STEG_ERR_INVALID;
  return Fail(vol,
              vol->fs->plain()->WriteFile(
                  path, std::string(static_cast<const char*>(data), len)));
}

int steg_plain_read(stegfs_volume* vol, const char* path, void* buf,
                    size_t cap, size_t* out_len) {
  if (vol == nullptr || out_len == nullptr) return STEG_ERR_INVALID;
  auto data = vol->fs->plain()->ReadFile(path);
  if (!data.ok()) return Fail(vol, data.status());
  size_t n = std::min(cap, data->size());
  std::memcpy(buf, data->data(), n);
  *out_len = n;
  return STEG_OK;
}

int steg_rsa_keygen(uint32_t bits, const char* seed, uint8_t* pub,
                    size_t* pub_len, uint8_t* priv, size_t* priv_len) {
  if (pub_len == nullptr || priv_len == nullptr) return STEG_ERR_INVALID;
  auto pair = stegfs::crypto::RsaGenerateKeyPair(bits, seed);
  if (!pair.ok()) return CodeOf(pair.status());
  std::string pub_blob = pair->public_key.Serialize();
  std::string priv_blob = pair->private_key.Serialize();
  if (pub_blob.size() > *pub_len || priv_blob.size() > *priv_len) {
    *pub_len = pub_blob.size();
    *priv_len = priv_blob.size();
    return STEG_ERR_NOSPACE;
  }
  std::memcpy(pub, pub_blob.data(), pub_blob.size());
  std::memcpy(priv, priv_blob.data(), priv_blob.size());
  *pub_len = pub_blob.size();
  *priv_len = priv_blob.size();
  return STEG_OK;
}

}  // extern "C"

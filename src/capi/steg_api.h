// C-compatible binding of the paper's section 4 API, function-for-function:
//
//   steg_create, steg_hide, steg_unhide, steg_connect, steg_disconnect,
//   steg_getentry, steg_addentry, steg_backup, steg_recovery
//
// plus the volume/session plumbing a C caller needs (mkfs/mount/unmount,
// read/write on connected objects, steg_stats introspection). All
// functions return 0 on success or a negative errno-style code;
// steg_strerror() yields the detailed message of the calling thread's most
// recent failure.
//
// Thread-safety: a mounted stegfs_volume handle is thread-safe — any
// number of threads may issue calls on one handle concurrently, and calls
// for distinct (uid, object) sessions proceed in parallel (the C++ stack
// underneath carries per-session, per-object and sharded-cache locking;
// see docs/ARCHITECTURE.md "Concurrency model"). Error messages are kept
// per thread, so steg_strerror() always describes the calling thread's own
// last failure. Only the lifecycle edges stay single-threaded: steg_mkfs,
// steg_mount, steg_recovery, and steg_unmount (which must not race any
// other call on the dying handle).
#ifndef STEGFS_CAPI_STEG_API_H_
#define STEGFS_CAPI_STEG_API_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct stegfs_volume stegfs_volume;

/* Error codes (negated StatusCode values). */
#define STEG_OK 0
#define STEG_ERR_NOT_FOUND -1
#define STEG_ERR_CORRUPTION -2
#define STEG_ERR_INVALID -3
#define STEG_ERR_IO -4
#define STEG_ERR_EXISTS -5
#define STEG_ERR_NOSPACE -6
#define STEG_ERR_DENIED -7
#define STEG_ERR_DATALOSS -8
#define STEG_ERR_UNSUPPORTED -9
#define STEG_ERR_PRECONDITION -10

/* Object types, as in the paper ('f' regular file, 'd' directory). */
#define STEG_TYPE_FILE 'f'
#define STEG_TYPE_DIR 'd'

/* --- volume lifecycle ------------------------------------------------- */

/* Creates + formats a volume backed by the host file `image_path`. */
int steg_mkfs(const char* image_path, uint32_t block_size,
              uint64_t num_blocks);

/* Mounts an existing volume; *out receives the handle. */
int steg_mount(const char* image_path, uint32_t block_size,
               stegfs_volume** out);

/* Flushes and releases the handle (disconnects all sessions). */
int steg_unmount(stegfs_volume* vol);

/* Detailed message of the calling thread's most recent error ("" if none).
 * The pointer stays valid until the same thread's next failing call. */
const char* steg_strerror(stegfs_volume* vol);

/* --- introspection ----------------------------------------------------- */

/* Point-in-time volume + buffer-cache counters. Cache counters are read
 * lock-free; space counters are consistent snapshots of the bitmap/inode
 * state. */
typedef struct stegfs_stats {
  /* buffer cache */
  uint64_t cache_hits;
  uint64_t cache_misses;
  uint64_t cache_evictions;
  uint64_t cache_writebacks;
  double cache_hit_rate; /* hits / (hits + misses), 0.0 when idle */
  /* space report */
  uint64_t block_size;
  uint64_t total_blocks;
  uint64_t metadata_blocks;
  uint64_t allocated_blocks; /* includes metadata */
  uint64_t free_blocks;
  uint64_t plain_file_bytes;
  /* batched data path */
  uint64_t cache_batched_reads;  /* blocks moved through batch reads */
  uint64_t cache_batched_writes; /* blocks moved through batch writes */
  uint64_t cache_prefetched;     /* blocks loaded by the readahead pool */
  uint64_t cache_prefetch_hits;  /* prefetched blocks later demand-read */
  uint64_t dev_vectored_blocks;  /* blocks moved through vectored dev I/O */
  uint64_t dev_coalesced_runs;   /* contiguous runs >= 2 blocks coalesced
                                    into one host transfer */
  /* active AES backend: "aes-ni" or "t-table" (static string, never
   * freed; stable for the process lifetime) */
  const char* crypto_tier;
  /* active SHA-256 backend: "sha-ni" or "sha-scalar" (static string,
   * stable for the process lifetime) */
  const char* sha_tier;
  /* async I/O engine (static string, stable for the handle lifetime):
   * "io_uring", "thread-pool", or "sync" when no engine is attached */
  const char* io_engine;
  uint64_t io_submitted_batches; /* batches handed to the engine */
  uint64_t io_completed_batches; /* batches fully completed */
  uint64_t io_inflight_blocks;   /* point-in-time blocks in flight */
  /* readahead observability: the window silently degrades to off when it
   * cannot help (no engine and no spare core), and these make that
   * visible instead of the old silent zeroing */
  uint32_t readahead_active; /* 1 when a prefetcher is armed */
  uint32_t readahead_window; /* effective window in blocks (0 when off) */
  /* crash-consistency subsystem (all zero when the volume mounted without
   * a journal): the write-ahead journal's commit counters plus what
   * mount-time recovery replayed. Journaled durability composes only
   * with a write-back cache: the journal's ordered protocol holds dirty
   * metadata images back until their record commits, which a
   * write-through cache (every write pushed to the device immediately)
   * cannot honor — such a mount is refused up front with
   * STEG_ERR_INVALID rather than silently downgraded. */
  const char* durability;          /* "journal" or "none" (static string) */
  uint64_t journal_records;        /* committed journal records */
  uint64_t journal_blocks_logged;  /* metadata after-images written */
  uint64_t journal_barrier_syncs;  /* write barriers issued by commits */
  uint64_t journal_overflows;      /* txns too big for the ring */
  uint64_t journal_recovered_records; /* replayed by this mount's recovery */
  /* group commit (PR 9): concurrent sessions' transactions batched into
   * one merged journal record under one barrier sequence */
  uint64_t journal_group_txns;     /* txns committed via batches */
  uint64_t journal_group_batches;  /* merged batch records written */
  uint64_t journal_group_merged_blocks; /* after-images saved by merging
                                           (same-block images coalesced) */
  uint64_t io_fixed_buffer_ops;    /* registered-buffer (FIXED) uring ops */
  uint64_t io_fixed_buffer_read_ops; /* READ_FIXED subset: cache-miss
                                        reads via the pinned read pool */
  uint64_t cache_dirty_epoch;      /* ordered-writeback epoch counter */
  uint64_t cache_dirty_blocks;     /* dirty blocks parked in the cache */
  /* redundancy / self-healing (all zero when no object carries a policy).
   * gf_tier is the active GF(256) backend: "gfni", "pshufb" or
   * "gf-scalar" (static string, stable for the process lifetime) */
  const char* gf_tier;
  uint64_t red_stripes_encoded;  /* parity (re)computations */
  uint64_t red_shares_written;   /* parity share blocks written */
  uint64_t red_degraded_reads;   /* stripes found degraded on read */
  uint64_t red_shares_healed;    /* shares re-dispersed onto fresh blocks */
  uint64_t red_verify_failures;  /* share checksum/bitmap verification
                                    failures */
  /* fault tolerance (PR 8; static string + counters, see steg_health for
   * the full surface) */
  const char* health;            /* "healthy", "degraded" or "read-only" */
  uint64_t fault_transient_errors; /* transient/timeout-classed I/O errors */
  uint64_t fault_retries;          /* retry attempts issued */
  uint64_t fault_retry_exhausted;  /* ops that failed every attempt */
} stegfs_stats;

/* Fills *out; safe to call concurrently with any other operation. All
 * cumulative counters come from ONE consistent snapshot of the volume's
 * metrics registry (no torn reads between related fields); only the
 * point-in-time gauges (inflight blocks, dirty blocks, space report) are
 * read separately. */
int steg_stats(stegfs_volume* vol, stegfs_stats* out);

/* --- observability ------------------------------------------------------ */

/* Everything below lives ONLY in process memory: no block on the volume
 * ever carries metrics or trace bytes, so observability state is
 * invisible to an inspector of the image (the deniability rule). */

/* Prometheus text exposition (version 0.0.4) of every instrument of this
 * volume: counters and log-bucketed latency histograms across the device,
 * buffer cache, crypto, journal, async engine, redundancy and per-op file
 * system latencies. *out receives a malloc'd NUL-terminated buffer (free
 * with steg_buffer_free); *out_len (optional) its strlen. */
int steg_metrics_text(stegfs_volume* vol, char** out, size_t* out_len);

/* Arms/disarms the volume's in-memory trace ring. While started, every
 * data-path operation records one root span plus its nested phase spans
 * (cache fills, journal barriers, crypto sub-batches, async completions).
 * The ring is fixed-size and wraps: newest spans win. */
int steg_trace_start(stegfs_volume* vol);
int steg_trace_stop(stegfs_volume* vol);

/* Exports the ring as Chrome trace-event JSON (loadable in Perfetto /
 * about:tracing). Same buffer contract as steg_metrics_text. */
int steg_trace_export(stegfs_volume* vol, char** out, size_t* out_len);

/* Releases a buffer returned by steg_metrics_text / steg_trace_export. */
void steg_buffer_free(char* buf);

/* Process-wide observability master switch (initial state comes from the
 * STEGFS_OBS environment variable: unset or != "0" means enabled).
 * Disabled, every timer and span skips the clock read entirely — the
 * remaining cost is one relaxed atomic load per instrumentation site. */
void steg_obs_set_enabled(int enabled);
int steg_obs_enabled(void);

/* Online recovery/scrub report (see docs/ARCHITECTURE.md "Journal &
 * recovery"). Unconnected hidden objects are not — cannot be — audited:
 * that would require their keys, which is the whole point. CONNECTED
 * objects with a redundancy policy ARE audited: fsck verifies their
 * shares and re-disperses any it can prove lost. */
typedef struct stegfs_fsck_report {
  uint64_t referenced_blocks;   /* reachable from plain metadata */
  uint64_t unaccounted_blocks;  /* abandoned+dummy+hidden+leaked: counted,
                                   never reclaimed (deniability) */
  uint64_t repaired_refs;       /* referenced-but-unmarked bits re-set */
  uint64_t journal_live_records;    /* records still in the ring (0 when
                                       healthy) */
  uint64_t journal_scrubbed_blocks; /* ring blocks re-noised by this run */
  /* hidden-side scrub (connected redundant objects only) */
  uint64_t hidden_objects_scanned;
  uint64_t hidden_stripes_checked;
  uint64_t hidden_degraded_stripes;     /* stripes with >=1 lost share */
  uint64_t hidden_healed_shares;        /* shares re-dispersed */
  uint64_t hidden_unrecoverable_stripes; /* losses beyond the policy bound */
  int clean;                    /* 1 when no repairs were needed */
} stegfs_fsck_report;

/* Runs the online scrubber on a mounted volume; safe alongside other
 * operations (it takes the metadata lock internally). */
int steg_fsck(stegfs_volume* vol, stegfs_fsck_report* out);

/* --- fault tolerance & degraded mode ----------------------------------- */

/* The mount's health state machine (monotonic until steg_health_reset):
 * HEALTHY -> DEGRADED on retry exhaustion or detected corruption (reads
 * and writes keep flowing, redundancy heals what it can), -> READONLY on
 * a persistent write fault (every mutating call then fails with
 * STEG_ERR_PRECONDITION until reset; reads keep working). */
#define STEG_HEALTH_HEALTHY 0
#define STEG_HEALTH_DEGRADED 1
#define STEG_HEALTH_READONLY 2

typedef struct stegfs_health {
  int state;              /* STEG_HEALTH_* */
  const char* state_name; /* "healthy" / "degraded" / "read-only" (static) */
  uint64_t degraded_transitions;
  uint64_t readonly_transitions;
  uint64_t rejected_writes;  /* mutating calls refused while read-only */
  /* error taxonomy counters (classified at the device boundary) */
  uint64_t transient_errors;
  uint64_t persistent_errors;
  uint64_t corruption_errors;
  uint64_t timeout_errors;
  /* retry/backoff layer */
  uint64_t retries;         /* retry attempts issued */
  uint64_t retry_successes; /* ops that succeeded on a retry */
  uint64_t retry_exhausted; /* ops that failed every attempt */
  /* faults fired by this handle's injection layer (steg_mount_faulty
   * mounts only; 0 otherwise) */
  uint64_t faults_injected;
} stegfs_health;

/* Fills *out; safe concurrently with any other operation. */
int steg_health(stegfs_volume* vol, stegfs_health* out);

/* Administrative re-arm after the operator fixed the underlying device:
 * returns the state machine to HEALTHY, re-enabling writes. Counters are
 * cumulative and survive the reset. */
int steg_health_reset(stegfs_volume* vol);

/* steg_mount with a scriptable fault-injection layer between the file
 * system and the image — the chaos-testing entry point. `fault_spec` is
 * the schedule DSL (see src/fault/fault_injection_device.h):
 *
 *   spec := [ "seed=" N ";" ] rule { ";" rule }
 *   rule := op ":" kind [ "@" after ] [ "x" count ] { ":" param }
 *   op   := "read" | "write" | "sync" | "any"
 *   kind := "eio" (transient) | "fail" (persistent) | "error" (untagged)
 *           | "torn" | "flip" | "delay" | "timeout"
 *   param:= "blocks=" LO "-" HI | "us=" N
 *
 * e.g. "seed=7;write:eio@3x2;sync:fail". NULL or "" arms no faults.
 * Note: the injection layer hides the image's file descriptor, so these
 * mounts use the thread-pool async engine, never io_uring. */
int steg_mount_faulty(const char* image_path, uint32_t block_size,
                      const char* fault_spec, stegfs_volume** out);

/* Replaces the fault schedule on a live steg_mount_faulty volume (the
 * mount-time spec is consumed by mount/recovery I/O too — inject after
 * mount to aim faults at specific operations). NULL or "" clears all
 * rules ("heal the device"). Returns STEG_ERR_INVALID on a volume not
 * mounted via steg_mount_faulty or on a malformed spec. */
int steg_fault_inject(stegfs_volume* vol, const char* fault_spec);

/* --- the paper's nine calls ------------------------------------------- */

/* Creates a hidden object of `objtype` with a fresh random FAK and records
 * (objname, FAK) in the uak's directory (created on first use). */
int steg_create(stegfs_volume* vol, const char* uid, const char* objname,
                const char* uak, char objtype);

/* Redundancy policy words for steg_create_redundant: none (the plain
 * steg_create behavior), n-way replication (tolerates n-1 lost copies),
 * or (k,n) information dispersal — n shares per k-block stripe, any k
 * reconstruct, so up to n-k lost shares heal transparently. 2 <= n <= 16;
 * for IDA additionally 2 <= k < n. */
#define STEG_RED_NONE 0u
#define STEG_RED_REPLICATE(n) (0x01000000u | ((uint32_t)(n) & 0xffu))
#define STEG_RED_IDA(k, n) \
  (0x02000000u | (((uint32_t)(k) & 0xffu) << 8) | ((uint32_t)(n) & 0xffu))

/* steg_create with an extent-protection policy, fixed for the object's
 * lifetime and persisted in its hidden header. Shares are FAK-encrypted
 * and placed like every other hidden block, so a redundant object is
 * indistinguishable from a non-redundant one without its key. */
int steg_create_redundant(stegfs_volume* vol, const char* uid,
                          const char* objname, const char* uak, char objtype,
                          uint32_t policy);
/* Converts the plain file/directory at `pathname` into a hidden object
 * (recursively for directories) and deletes the plain source. */
int steg_hide(stegfs_volume* vol, const char* uid, const char* pathname,
              const char* objname, const char* uak);
/* Converts a hidden object back into a plain file/directory at `pathname`
 * and deletes the hidden source. */
int steg_unhide(stegfs_volume* vol, const char* uid, const char* pathname,
                const char* objname, const char* uak);
/* Resolves objname through the uak's directory and makes it visible to the
 * uid session; connecting a hidden directory reveals its offspring too. */
int steg_connect(stegfs_volume* vol, const char* uid, const char* objname,
                 const char* uak);
int steg_disconnect(stegfs_volume* vol, const char* uid,
                    const char* objname);
/* Sharing: getentry writes the grantee-RSA-encrypted (objname, type, FAK)
 * record to the PLAIN file `entryfile`; addentry decrypts such a record
 * with the grantee's private key, adds it to the grantee's uak directory,
 * and destroys the entry file. The grantor never learns the grantee's UAK.
 * Keys are the serialized bytes of crypto::Rsa*Key::Serialize. */
int steg_getentry(stegfs_volume* vol, const char* uid, const char* objname,
                  const char* uak, const char* entryfile,
                  const uint8_t* pubkey, size_t pubkey_len);
int steg_addentry(stegfs_volume* vol, const char* uid,
                  const char* entryfile, const uint8_t* privkey,
                  size_t privkey_len, const char* uak);
/* Writes the backup image to the HOST file `backupfile`. */
int steg_backup(stegfs_volume* vol, const char* backupfile);
/* Recovers the HOST image file onto `image_path` (fresh volume file). */
int steg_recovery(const char* image_path, uint32_t block_size,
                  uint64_t num_blocks, const char* backupfile);

/* --- I/O on connected hidden objects + plain files --------------------- */

int steg_hidden_write(stegfs_volume* vol, const char* uid,
                      const char* objname, const void* data, size_t len);
/* Reads up to `cap` bytes; *out_len receives the byte count. */
int steg_hidden_read(stegfs_volume* vol, const char* uid,
                     const char* objname, void* buf, size_t cap,
                     size_t* out_len);
int steg_plain_write(stegfs_volume* vol, const char* path, const void* data,
                     size_t len);
int steg_plain_read(stegfs_volume* vol, const char* path, void* buf,
                    size_t cap, size_t* out_len);

/* RSA helper so pure-C callers can make key pairs for sharing. Buffers
 * receive serialized keys; *pub_len / *priv_len are in/out (capacity in,
 * size out). */
int steg_rsa_keygen(uint32_t bits, const char* seed, uint8_t* pub,
                    size_t* pub_len, uint8_t* priv, size_t* priv_len);

#ifdef __cplusplus
}  /* extern "C" */
#endif

#endif  /* STEGFS_CAPI_STEG_API_H_ */

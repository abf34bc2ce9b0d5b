// StreamEngine: multiplexes many independent keyed bag streams over a set of
// shard worker threads. Every stream key is hash-routed to exactly one shard,
// so the bags of one stream are always processed in submission order by a
// single thread against that stream's own BagStreamDetector — no locking on
// the hot path, bounded per-shard queues for backpressure, and per-stream
// results that are bitwise-independent of the shard count (each detector is
// seeded from the engine seed, a platform-stable hash of its key, and — for
// non-default profiles — the profile name, never from shard placement).
//
// Heterogeneous streams: the engine carries a set of *named detector
// profiles* (RegisterProfile). Each stream key binds to one profile on first
// sight — Submit(key, bag, "profile") — so one engine can run, say,
// KL-scored activity streams next to Pearson/LR-scored network streams
// without spinning up a second runtime.
//
// Ingestion is zero-copy past the boundary: nested bags are flattened into a
// FlatBag exactly once at Submit/TrySubmit and then *moved* — never copied —
// through the shard queue to the detector, which consumes a BagView.
//
// Observability is one typed stream: every step result, stream error, and
// idle eviction is an EngineEvent delivered either to a caller-installed
// sink (set_event_sink) or into a drainable queue (DrainEvents). The legacy
// set_callback/Drain/DrainErrors trio is kept as shims over the same events.
//
// This is the serving layer the ROADMAP's "millions of streams" target grows
// on: Submit() for online pushes, TrySubmit() for non-blocking ingest,
// RunBatch() for offline sweeps over a keyed corpus, and optional
// idle-stream eviction so mostly-idle keys do not pin detector memory.

#ifndef BAGCPD_RUNTIME_STREAM_ENGINE_H_
#define BAGCPD_RUNTIME_STREAM_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/macros.h"
#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/core/detector.h"

namespace bagcpd {

/// \brief Name of the implicit profile backing StreamEngineOptions::detector;
/// Submit() with no profile argument routes here. The name is reserved:
/// RegisterProfile rejects it.
inline constexpr const char kDefaultProfileName[] = "default";

/// \brief The per-stream detector seed: a pure function of (engine seed,
/// stream key, canonical profile name) — never of shard placement — with the
/// default profile reproducing the historical (engine seed, key) derivation
/// bit for bit. Exposed as a free function so offline runners (see
/// batch/batch_runner.h) seed their detectors exactly like a StreamEngine
/// with the same engine seed would; `profile` must already be canonical
/// (empty canonicalizes to kDefaultProfileName here for convenience).
std::uint64_t DerivePerStreamSeed(std::uint64_t engine_seed,
                                  const std::string& stream_id,
                                  const std::string& profile);

/// \brief Configuration of a StreamEngine.
struct StreamEngineOptions {
  /// Number of shard worker threads; 0 picks std::thread::hardware_concurrency
  /// (at least 1).
  std::size_t num_shards = 0;
  /// Bound on each shard's pending-bag queue; Submit blocks (backpressure)
  /// while the target shard is full, TrySubmit returns Unavailable. Must be
  /// >= 1.
  std::size_t shard_queue_capacity = 1024;
  /// The "default" detector profile, used by every stream submitted without
  /// an explicit profile name. Additional profiles are registered on the
  /// engine (RegisterProfile). `detector.seed` MUST be 0: per-stream seeds
  /// derive from the engine `seed` below plus the key (and profile), and a
  /// nonzero value here used to be silently ignored — engine creation now
  /// rejects it so the footgun is loud.
  DetectorOptions detector;
  /// Engine seed; combined with each stream key (and, for non-default
  /// profiles, the profile name) to seed that stream's detector
  /// deterministically (independent of num_shards).
  std::uint64_t seed = 0;
  /// When true (and no sink or callback is set) events accumulate in an
  /// internal queue read via DrainEvents()/Drain(). Disable for
  /// fire-and-forget callers that only watch the counters.
  bool collect_results = true;
  /// When > 0, a stream key is evicted once strictly more than this many
  /// engine-wide submissions (of any key) have been enqueued since the key's
  /// previous bag: its detector (window state, EMD cache, CI history) is
  /// destroyed, and a later bag for the key starts a fresh detector with the
  /// same per-key seed. Idleness is measured on the global submission
  /// sequence — never on shard-local activity — so for every key that
  /// receives another bag, the evict-or-continue decision (and therefore
  /// every result) is independent of the shard count. Keys that never
  /// return are reclaimed by a periodic per-shard sweep whose timing does
  /// depend on sharding, so evicted_count()/live_stream_count() — and the
  /// timing of kEviction events — may differ across shard counts even though
  /// results never do.
  /// 0 disables eviction (streams live forever).
  std::uint64_t max_idle_submissions = 0;
  /// Per-shard buffer-arena tuning. Each shard owns one BufferArena; ingest
  /// flattening and the shard's detector signature builds recycle buffers
  /// through it, so the steady-state hot path never touches malloc. Pooling
  /// never changes results (buffers are fully overwritten).
  BufferArenaOptions arena;
  /// Spill-to-disk eviction. When non-empty, cold streams are *exported*
  /// instead of destroyed: the idle sweep (and, when spill_resident_bytes is
  /// set, a byte-budget LRU) writes each victim's checkpoint blob into this
  /// directory and frees the detector; the next bag for the key transparently
  /// re-imports the blob and continues with bitwise-identical results — no
  /// restart, so with spilling on max_idle_submissions governs when state
  /// leaves memory, never whether it survives. The directory must already
  /// exist and be writable; a stream whose spill file cannot be read back is
  /// quarantined like any other stream failure. Empty disables spilling.
  std::string spill_directory;
  /// Engine-wide resident-detector-state byte budget for the spill LRU; when
  /// > 0 (requires spill_directory) each shard spills its coldest streams —
  /// smallest last-submission sequence first, never the stream whose bag
  /// triggered the check — while the engine-wide resident total (see
  /// resident_state_bytes()) exceeds the budget. 0 means no budget: only the
  /// idle sweep spills.
  std::size_t spill_resident_bytes = 0;

  // -- Fault containment & self-healing ----------------------------------

  /// Per-stream fault budget. 0 (the historical default): the first failure
  /// of a stream — detector error, failed rehydrate — quarantines it forever
  /// (kError). When > 0 a failing stream is *restarted* instead: its detector
  /// is torn down, a kStreamFault event carries the error, and the stream
  /// resumes — from its rolling snapshot when snapshot_interval > 0, from
  /// scratch otherwise — until it has failed strictly more than this many
  /// times, after which it quarantines like before. Ragged bags and profile
  /// conflicts are caller bugs and always quarantine immediately, budget or
  /// not; non-finite bags are dropped per bag and never charge the budget.
  std::size_t max_stream_faults = 0;
  /// When > 0 (requires max_stream_faults > 0), a stream that just failed for
  /// the k-th time drops its bags for the next `k * fault_backoff_submissions`
  /// engine-wide submissions (linear backoff). The window is measured on the
  /// global submission sequence — never wall-clock — so recovery timing is a
  /// pure function of the submission order.
  std::uint64_t fault_backoff_submissions = 0;
  /// When > 0 (requires max_stream_faults > 0), each stream refreshes an
  /// in-memory state snapshot after every `snapshot_interval`-th successful
  /// push; a failing stream restores from it (losing at most
  /// snapshot_interval - 1 pushes) instead of restarting from scratch.
  /// Snapshots are recovery metadata: they are NOT part of Checkpoint(), so a
  /// restored engine starts with a clean fault history.
  std::uint64_t snapshot_interval = 0;
  /// Failed restore attempts tolerated against one snapshot before it is
  /// declared poisoned and discarded (the stream then restarts from scratch
  /// with its usual per-key seed).
  std::size_t max_restore_failures = 2;
  /// Spill-file garbage collection for keys that never return. When > 0
  /// (requires spill_directory), a spilled stream whose key has not been seen
  /// for strictly more than this many engine-wide submissions has its spill
  /// file deleted and its record dropped (kEviction event, counted in both
  /// evicted_count() and spill_gc_count()); a later bag restarts the stream
  /// from scratch. 0 keeps spill files forever.
  std::uint64_t spill_gc_submissions = 0;
  /// Fault-injection spec armed on the process-wide injector at engine
  /// construction, e.g. "spill.read:every-n:3" (syntax in
  /// fault/fault_injector.h). Empty arms nothing. This is a drill/test hook:
  /// arming replaces any previously armed spec process-wide.
  std::string fault;
};

/// \brief Checks that `options` form a coherent engine configuration; this is
/// exactly the condition StreamEngine::Create succeeds under (and what the
/// legacy constructor surfaces through init_status()).
Status ValidateStreamEngineOptions(const StreamEngineOptions& options);

/// \brief One detector step result tagged with the stream that produced it.
struct StreamStepResult {
  std::string stream_id;
  StepResult step;
};

/// \brief One observable engine occurrence: a detector step result, an
/// idle-stream eviction, or a stream failure. The single event type replaces
/// the historical callback-for-results / DrainErrors-for-failures split.
struct EngineEvent {
  enum class Kind {
    /// `step` holds the detector output for `stream_id`.
    kStep,
    /// `stream_id` sat idle past max_idle_submissions and its detector was
    /// destroyed; a later bag restarts it from scratch.
    kEviction,
    /// `error` holds the failure that quarantined `stream_id` (ragged bag,
    /// detector failure, or a profile conflict). Later bags are dropped.
    kError,
    /// `stream_id`'s state was exported — by ExportStream, by an engine-wide
    /// Checkpoint, or by a spill eviction; `blob_bytes` holds the snapshot
    /// size. The legacy Drain()/DrainErrors() pair discards these, like
    /// kEviction, so callers polling only the legacy drains are unaffected.
    kCheckpoint,
    /// `stream_id`'s state was restored — by ImportStream, by an engine-wide
    /// Restore, or by the transparent rehydrate of a spilled key on its next
    /// bag; `blob_bytes` holds the snapshot size read back.
    kRestore,
    /// `stream_id` failed (`error` holds why) but stayed within its fault
    /// budget (max_stream_faults > 0) — or the failing bag itself was bad
    /// (non-finite values / an injected ingest fault) and was dropped without
    /// touching the stream. The stream is NOT quarantined: it resumes from a
    /// snapshot (a kRestore event follows) or from scratch, possibly after a
    /// backoff window. The legacy Drain()/DrainErrors() discard these like
    /// kEviction; only quarantines surface as kError.
    kStreamFault,
  };
  Kind kind = Kind::kStep;
  std::string stream_id;
  /// Profile the stream is (was) bound to; kDefaultProfileName when none was
  /// named at submission.
  std::string profile;
  /// Global submission sequence number of the bag that triggered the event
  /// (for kEviction by sweep: the sequence the sweep observed).
  std::uint64_t sequence = 0;
  /// Wall time the triggering bag spent between enqueue (Submit securing
  /// queue space) and the start of processing on the shard worker — the
  /// queueing component of ingest latency, in nanoseconds. 0 for kEviction
  /// events raised by the periodic sweep (no triggering bag of their own).
  std::uint64_t enqueue_to_process_ns = 0;
  /// Checkpoint blob size for kCheckpoint/kRestore events; 0 otherwise.
  std::uint64_t blob_bytes = 0;
  StepResult step;
  Status error;
};

/// \brief Aggregate enqueue→process latency over every processed submission
/// (not just those that produced an event); see latency_stats().
struct EngineLatencyStats {
  std::uint64_t samples = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns() const {
    return samples == 0 ? 0.0 : static_cast<double>(total_ns) / samples;
  }
};

/// \brief Concurrent multi-stream change-point detection runtime.
///
/// Thread-safety: Submit/TrySubmit/Flush/Drain*/DrainEvents may be called
/// from any thread (typically one producer). RegisterProfile, set_event_sink
/// and set_callback must happen before the first Submit. The event sink runs
/// on shard worker threads and must be thread-safe if it touches shared
/// state.
class StreamEngine {
 public:
  /// Receives every EngineEvent on a shard thread when installed; replaces
  /// the internal event queue entirely.
  using EventSink = std::function<void(const EngineEvent&)>;
  /// Legacy step-results-only callback (shim over EventSink).
  using ResultCallback = std::function<void(const StreamStepResult&)>;

  /// \brief Validating factory: fails with the exact
  /// ValidateStreamEngineOptions status on incoherent options, otherwise
  /// returns a running engine (init_status() is OK by construction). This is
  /// the preferred entry point; see also api/spec.h for EngineSpec::Create().
  static Result<std::unique_ptr<StreamEngine>> Create(
      const StreamEngineOptions& options);

  /// Legacy constructor kept as a migration shim: construction never fails
  /// hard, so callers must check `init_status()` before use. Prefer Create().
  BAGCPD_DEPRECATED("use StreamEngine::Create(options)")
  explicit StreamEngine(const StreamEngineOptions& options);

  /// Shuts down (draining all queued work) and joins the shard workers.
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// \brief OK iff the options were coherent.
  const Status& init_status() const { return init_status_; }

  /// \brief Registers a named detector profile so streams can be routed to
  /// it via Submit(key, bag, name). Must be called before the first Submit
  /// (not thread-safe against concurrent Submit). Fails on a duplicate or
  /// reserved name, incoherent detector options, or a nonzero
  /// `profile.seed` (per-stream seeds always derive from the engine seed).
  Status RegisterProfile(const std::string& name,
                         const DetectorOptions& profile);

  /// \brief Number of registered profiles, including "default".
  std::size_t profile_count() const { return 1 + profiles_.size(); }

  /// \brief Installs the event sink receiving every EngineEvent. Must be
  /// called before the first Submit; replaces the drainable queue. Mutually
  /// exclusive with the legacy set_callback — installing both is refused
  /// with Invalid (one would silently starve the other).
  Status set_event_sink(EventSink sink);

  /// \brief Legacy: installs a step-results-only callback. Errors still
  /// accumulate for DrainErrors(); eviction events are dropped. Prefer
  /// set_event_sink (mutually exclusive with it, like above).
  BAGCPD_DEPRECATED("use set_event_sink")
  Status set_callback(ResultCallback callback);

  /// \brief Enqueues `bag` as the next observation of `stream_id`, creating
  /// the stream's detector on first sight (bound to `profile`, or the
  /// default profile when empty). The nested bag is flattened once here and
  /// moved through the shard queue. Blocks while the target shard's queue is
  /// full. Returns an error for an unknown profile, after Shutdown(), or on
  /// a bad init. A stream already bound to a different profile is
  /// quarantined when the conflicting bag is processed.
  Status Submit(const std::string& stream_id, const Bag& bag,
                const std::string& profile = std::string());

  /// \brief Zero-copy submission: `bag` is moved — never copied — through
  /// the shard queue.
  Status Submit(const std::string& stream_id, FlatBag bag,
                const std::string& profile = std::string());

  /// \brief Non-blocking Submit: returns Unavailable (Status::IsUnavailable)
  /// immediately when the target shard's queue is full instead of blocking.
  /// The bag is NOT consumed in that case — retry or shed load upstream.
  Status TrySubmit(const std::string& stream_id, const Bag& bag,
                   const std::string& profile = std::string());
  Status TrySubmit(const std::string& stream_id, FlatBag&& bag,
                   const std::string& profile = std::string());

  /// \brief Blocks until every queued bag has been fully processed.
  void Flush();

  /// \brief Removes and returns all queued events (step results, errors,
  /// evictions... every kind). Empty when an event sink is installed. Order
  /// across streams is arrival order (unspecified between shards); events of
  /// one stream always appear in submission order.
  std::vector<EngineEvent> DrainEvents();

  /// \brief Legacy: removes and returns the queued step results only
  /// (queued errors stay for DrainErrors; queued evictions are discarded —
  /// the legacy drains predate eviction events, and keeping them would grow
  /// the queue forever for callers that only ever poll the legacy pair).
  /// Results of one stream appear in time order.
  std::vector<StreamStepResult> Drain();

  /// \brief Legacy: removes and returns the queued per-stream failures only
  /// (queued steps stay for Drain; queued evictions are discarded, see
  /// Drain). A stream that fails (e.g. a ragged bag) is quarantined: its
  /// later bags are dropped and counted in dropped_count(). Other streams
  /// are unaffected.
  std::vector<std::pair<std::string, Status>> DrainErrors();

  /// \brief Offline sweep: feeds every sequence through the engine (bags
  /// interleaved round-robin across streams to keep all shards busy), waits
  /// for completion, and returns the per-stream result series. Streams are
  /// routed to `profile` (default profile when empty).
  ///
  /// Requires collect_results and no sink/callback. The batch fails if any
  /// requested stream is already quarantined or fails during the sweep.
  /// Deterministic for a fixed engine seed: per-stream output is identical
  /// for any num_shards. Note that detectors persist across calls, so a key
  /// already fed online (or by a previous batch) continues from its existing
  /// window state; use a fresh engine for a from-scratch sweep.
  Result<std::map<std::string, std::vector<StepResult>>> RunBatch(
      const std::map<std::string, BagSequence>& streams,
      const std::string& profile = std::string());

  /// \brief Heterogeneous sweep: like RunBatch above, but each key routes to
  /// its entry in `profile_by_key` (falling back to `default_profile`, then
  /// to the default profile, when absent). Every referenced profile must be
  /// registered — an unknown name fails the whole batch up front, before any
  /// submission. Map entries for keys not present in `streams` are ignored,
  /// so one long-lived routing map can serve many partial sweeps. A key
  /// already bound to a different profile by earlier traffic is quarantined
  /// deterministically when its first conflicting bag is processed, which
  /// fails the batch like any other stream failure.
  Result<std::map<std::string, std::vector<StepResult>>> RunBatch(
      const std::map<std::string, BagSequence>& streams,
      const std::map<std::string, std::string>& profile_by_key,
      const std::string& default_profile = std::string());

  // -- Checkpointing (wire format in serialize/checkpoint.h) -------------

  /// \brief Snapshots one stream — key, profile binding, and complete
  /// detector state — into an engine-stream blob. Quiesces the key's shard
  /// (waits for its queue to drain), so the snapshot always sits between
  /// pushes; other shards keep running. Works for both resident and spilled
  /// streams. Fails with Invalid for an unknown or quarantined key. Emits a
  /// kCheckpoint event. May be called from any thread, including after
  /// Shutdown() (the checkpoint-at-exit pattern).
  Status ExportStream(const std::string& stream_id, std::string* blob);

  /// \brief Restores a stream exported by ExportStream (possibly from
  /// another engine process). The blob's embedded key must equal
  /// `stream_id`, its profile must be registered here with identical
  /// detector options (per-stream seeds re-derive from THIS engine's seed,
  /// so the engine seed must match the exporter's for bitwise continuation —
  /// the options-spec gate enforces it), and the key must not already be
  /// bound, spilled, or quarantined (Invalid otherwise). A truncated or
  /// corrupt blob fails with IoError, an unknown format version with
  /// NotImplemented; failures never leave a partial stream behind. Restored
  /// detectors rehydrate their buffers through the owning shard's arena.
  /// Emits a kRestore event.
  Status ImportStream(const std::string& stream_id, std::string_view blob);

  /// \brief Snapshots the whole engine — seed plus every stream, resident or
  /// spilled — into one engine-checkpoint blob. Walks shards in index order
  /// (quiescing each in turn) with keys sorted within a shard, so the bytes
  /// are deterministic for a given engine state. The caller must stop
  /// submitting for the snapshot to be a consistent cut across shards (after
  /// a Flush(), or post-Shutdown()).
  Status Checkpoint(std::string* blob);

  /// \brief Restores every stream of an engine checkpoint into this engine
  /// (which must be configured with the same engine seed — Invalid
  /// otherwise — and have the profiles the checkpoint's streams bind to).
  /// Each stream is restored exactly as ImportStream would; the first
  /// failure aborts the walk, leaving earlier streams restored.
  Status Restore(std::string_view blob);

  /// \brief Streams spilled to disk so far (cumulative).
  std::uint64_t spilled_count() const { return spilled_.load(); }
  /// \brief Streams restored so far (ImportStream / Restore / transparent
  /// rehydrate), cumulative.
  std::uint64_t restored_count() const { return restored_.load(); }
  /// \brief Estimated resident detector-state bytes across all shards (the
  /// quantity the spill budget caps). Maintained only when spilling is
  /// enabled; 0 otherwise.
  std::size_t resident_state_bytes() const { return resident_bytes_.load(); }

  /// \brief Stops accepting work, drains in-flight work, joins workers.
  /// Idempotent; called by the destructor. Spill files are left on disk (they
  /// are the recovery artifacts).
  void Shutdown();

  std::size_t num_shards() const { return shards_.size(); }
  std::uint64_t submitted_count() const { return submit_seq_.load(); }
  std::uint64_t processed_count() const { return processed_.load(); }
  std::uint64_t result_count() const { return results_emitted_.load(); }
  std::uint64_t dropped_count() const { return dropped_.load(); }
  /// \brief Number of detectors created so far (a key evicted and seen again
  /// counts twice).
  std::size_t stream_count() const { return streams_created_.load(); }
  /// \brief Number of idle-stream evictions so far.
  std::uint64_t evicted_count() const { return evicted_.load(); }
  /// \brief Detectors currently resident across all shards.
  std::size_t live_stream_count() const { return live_streams_.load(); }
  /// \brief Contained stream failures so far (kStreamFault events charged
  /// against a fault budget; quarantines surface in kError events instead).
  std::uint64_t stream_fault_count() const { return stream_faults_.load(); }
  /// \brief Spill files garbage-collected so far (keys that never returned;
  /// also counted in evicted_count()).
  std::uint64_t spill_gc_count() const { return spill_gc_.load(); }
  /// \brief Aggregated buffer-pool counters across all shard arenas.
  BufferArenaStats arena_stats() const;
  /// \brief Aggregate enqueue→process latency across every processed
  /// submission so far (the same quantity EngineEvent::enqueue_to_process_ns
  /// reports per event). Purely observational: reading it never perturbs
  /// results.
  EngineLatencyStats latency_stats() const;

 private:
  struct Task {
    std::string stream_id;
    // Profile the submission named (canonicalized; kDefaultProfileName when
    // none was given).
    std::string profile;
    // Carries either the flattened bag or the flattening error; a conversion
    // failure must quarantine the stream on its shard (exactly like a
    // detector failure), not reject the Submit call. The initializer only
    // makes Task default-constructible for the worker's pop loop.
    Result<FlatBag> bag = Status::Invalid("empty task");
    // Global submission sequence number; drives idle eviction.
    std::uint64_t seq = 0;
    // Non-OK when the ingest boundary tagged this bag as bad (non-finite
    // values, or an injected arena.alloc fault): the shard drops the bag with
    // a kStreamFault event and the stream continues on its next good bag.
    Status ingest_error;
    // When the task entered the shard queue; Process() turns it into the
    // enqueue→process latency sample.
    std::chrono::steady_clock::time_point enqueued_at;
  };

  struct StreamState {
    std::unique_ptr<BagStreamDetector> detector;
    // Profile the key bound to at detector creation.
    std::string profile;
    std::uint64_t last_seq = 0;
    // Last EstimatedStateBytes() reading, folded into resident_bytes_;
    // maintained only when spilling is enabled.
    std::size_t state_bytes = 0;
  };

  // Self-healing bookkeeping for one stream key. Lives OUTSIDE StreamState so
  // it survives detector teardown and spilling; erased on quarantine and on
  // eviction/GC (an evicted key restarts with a clean history). Never part of
  // Checkpoint(): snapshots are recovery metadata, not engine state.
  struct RecoveryState {
    // Profile the key bound to; snapshots restore against it and a
    // conflicting later submission quarantines like a resident conflict.
    std::string profile;
    // Failures charged against max_stream_faults so far.
    std::size_t fault_count = 0;
    // Bags with seq <= cooldown_until are dropped (the backoff window).
    std::uint64_t cooldown_until = 0;
    // Most recent detector-state blob (empty: none yet, or discarded as
    // poisoned after max_restore_failures failed restores).
    std::string snapshot;
    // Failed restore attempts against the current snapshot.
    std::size_t restore_failures = 0;
  };

  // A stream whose detector state lives in a spill file instead of memory.
  struct SpilledStream {
    std::string path;
    std::string profile;
    std::uint64_t last_seq = 0;
    std::uint64_t blob_bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    // The shard's buffer pool (owned by arenas_; set once at construction).
    BufferArena* arena = nullptr;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::condition_variable drained;
    std::deque<Task> queue;
    bool busy = false;
    // Touched only by this shard's worker thread (keyed state lives with the
    // shard that owns the key).
    std::unordered_map<std::string, StreamState> detectors;
    // Spilled keys of this shard (same ownership rules as detectors).
    std::unordered_map<std::string, SpilledStream> spilled;
    // Per-key fault/recovery bookkeeping (same ownership rules as detectors).
    std::unordered_map<std::string, RecoveryState> recovery;
    std::unordered_map<std::string, Status> quarantined;
    // Worker-local counter driving the periodic idle sweep.
    std::uint64_t processed_since_sweep = 0;
    // Spill files that rehydrates consumed (at most kConsumedSpillFiles).
    // The shard's next spills rename and overwrite them instead of creating
    // files, and the worker deletes the rest when its queue runs empty, so
    // an idle shard's directory holds exactly one file per spilled stream.
    // Creating and deleting files allocates and frees inodes, which on
    // common file systems serializes every shard.
    std::vector<std::string> consumed_spills;
  };

  // Moves *bag into the shard queue only once space is secured, so a
  // non-blocking rejection leaves the caller's payload intact.
  Status SubmitImpl(const std::string& stream_id, const std::string& profile,
                    std::size_t shard_index, Result<FlatBag>* bag,
                    bool blocking);
  // Maps a submission's profile argument to its canonical registered name
  // (empty -> default), or fails for an unknown profile.
  Result<std::string> ResolveProfile(const std::string& profile) const;
  // The detector options behind a canonical profile name.
  const DetectorOptions& ProfileOptions(const std::string& profile) const;
  // Per-stream detector seed: a pure function of (engine seed, key, profile)
  // — never of shard placement — with the default profile reproducing the
  // historical (engine seed, key) derivation bit for bit.
  std::uint64_t DeriveStreamSeed(const std::string& stream_id,
                                 const std::string& profile) const;
  // Routes an event to the sink / legacy callback / queue; `quarantine`
  // additionally records the key so RunBatch can refuse it later.
  void EmitEvent(EngineEvent event);
  void QuarantineStream(Shard& shard, const std::string& stream_id,
                        const std::string& profile, std::uint64_t seq,
                        const Status& error, std::uint64_t latency_ns = 0);
  // Recovery ladder for a failed stream: quarantines when max_stream_faults
  // is 0 (the historical contract) or the budget is exhausted; otherwise
  // tears the detector down, emits kStreamFault, opens the backoff window,
  // and restores from the rolling snapshot when one exists (falling back to
  // a from-scratch restart once the snapshot fails too often).
  void HandleStreamFailure(Shard& shard, const std::string& stream_id,
                           const std::string& profile, std::uint64_t seq,
                           const Status& error, std::uint64_t latency_ns);
  // Refreshes the stream's rolling recovery snapshot when the push count
  // hits the snapshot interval.
  void MaybeSnapshotStream(Shard& shard, const std::string& stream_id,
                           StreamState& state);
  // Deletes a spilled key's file and record past the GC horizon (kEviction
  // event); a later bag restarts the stream from scratch.
  void CollectSpilledStream(Shard& shard, const std::string& stream_id,
                            std::uint64_t now_seq);
  void WorkerLoop(std::size_t shard_index);
  void Process(Shard& shard, Task task);
  void SweepIdle(Shard& shard, std::uint64_t now_seq);
  std::size_t ShardOf(const std::string& stream_id) const;

  // -- Checkpoint / spill internals --------------------------------------
  bool spill_enabled() const { return !options_.spill_directory.empty(); }
  // Blocks until `shard` has no queued or in-flight task and returns the
  // held lock: the worker is parked on its empty-queue wait and Submit is
  // blocked on the mutex, so the caller may touch shard-owned state.
  std::unique_lock<std::mutex> QuiesceShard(Shard& shard);
  // ExportStream body, shard already quiesced.
  Status ExportStreamLocked(Shard& shard, const std::string& stream_id,
                            std::string* blob);
  // ImportStream body past validation: builds the detector, restores the
  // blob into it, registers the stream, emits kRestore. `restoring_spill`
  // distinguishes a transparent rehydrate (keeps the spill record's
  // last_seq) from an explicit import (stamped with the current sequence).
  Status ImportStreamLocked(Shard& shard, const std::string& stream_id,
                            const std::string& profile,
                            std::string_view detector_blob,
                            std::uint64_t blob_bytes, std::uint64_t last_seq,
                            std::uint64_t latency_ns);
  // Exports `stream_id`'s resident detector to a fresh spill file; true on
  // success (the detector is freed), false if the stream stays resident
  // (export or write failed — memory pressure persists but nothing is lost).
  bool SpillStream(Shard& shard, const std::string& stream_id,
                   std::uint64_t now_seq);
  // Reads a spilled key's file back into a resident detector (through the
  // shard arena). The spill record is consumed either way; a failure
  // quarantines the stream at the caller.
  Status RehydrateStream(Shard& shard, const std::string& stream_id,
                         std::uint64_t seq, std::uint64_t latency_ns);
  // Spills this shard's coldest streams while the engine-wide resident total
  // exceeds the budget (never the stream whose bag triggered the check).
  void EnforceSpillBudget(Shard& shard, std::uint64_t now_seq);
  // Fresh spill-file path for `stream_id` (hash + running counter).
  std::string SpillPathFor(const std::string& stream_id);
  // Folds a new EstimatedStateBytes reading into the resident accounting.
  void UpdateResidentBytes(StreamState& state);

  StreamEngineOptions options_;
  Status init_status_;
  EventSink sink_;
  ResultCallback callback_;
  // Named profiles beyond the implicit "default" (read-only once traffic
  // starts; RegisterProfile enforces that).
  std::map<std::string, DetectorOptions> profiles_;
  // One arena per shard; declared before shards_ so every pooled buffer
  // still referenced by shard state (queued FlatBags, detector scratch) dies
  // before its arena does.
  std::vector<std::unique_ptr<BufferArena>> arenas_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  bool shut_down_ = false;

  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> results_emitted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::size_t> streams_created_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::size_t> live_streams_{0};
  // Contained (non-quarantining) stream failures; see stream_fault_count().
  std::atomic<std::uint64_t> stream_faults_{0};
  // Spill files reclaimed by the GC horizon; see spill_gc_count().
  std::atomic<std::uint64_t> spill_gc_{0};
  // Occurrence ordinals feeding the spill/ckpt fault points. Engine-local so
  // concurrent engines do not perturb each other's drills; deterministic per
  // configuration (spill timing legitimately depends on sharding).
  std::atomic<std::uint64_t> fault_spill_write_ops_{0};
  std::atomic<std::uint64_t> fault_spill_read_ops_{0};
  std::atomic<std::uint64_t> fault_ckpt_import_ops_{0};
  // Checkpoint subsystem counters: cumulative spills and restores, the
  // resident-state total the spill budget caps, and the spill-file name
  // sequence (never reused, so a respilled key gets a fresh file).
  std::atomic<std::uint64_t> spilled_{0};
  std::atomic<std::uint64_t> restored_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  std::atomic<std::uint64_t> spill_file_seq_{0};
  // Global submission sequence; tasks record it so idleness is measured in
  // engine-wide submissions, independent of sharding. Doubles as the
  // submitted_count() value: exactly one increment per accepted submission.
  std::atomic<std::uint64_t> submit_seq_{0};
  // Enqueue→process latency accumulators behind latency_stats(); the max is
  // maintained with a CAS loop so concurrent shard workers never lose a peak.
  std::atomic<std::uint64_t> latency_samples_{0};
  std::atomic<std::uint64_t> latency_total_ns_{0};
  std::atomic<std::uint64_t> latency_max_ns_{0};

  // The single event queue behind DrainEvents/Drain/DrainErrors (unused when
  // a sink is installed). quarantined_keys_ lives under the same lock: every
  // key ever quarantined, never drained, so RunBatch can refuse keys that
  // failed in earlier traffic.
  mutable std::mutex events_mu_;
  std::vector<EngineEvent> events_;
  std::unordered_set<std::string> quarantined_keys_;
};

}  // namespace bagcpd

#endif  // BAGCPD_RUNTIME_STREAM_ENGINE_H_

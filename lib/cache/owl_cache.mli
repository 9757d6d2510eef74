(** Content-addressed, on-disk synthesis cache.

    Small per-instruction CEGIS queries are structurally stable across
    runs, sketch edits, and [jobs] settings, which makes them memoize
    well.  This store keys each synthesis problem by a {e fingerprint} —
    the SHA-256 of a canonical document combining {!Term.serialize} output
    (deterministic: same DAG ⇒ same bytes in every process) with the
    solver-relevant options — and persists one tier, the {b result tier}:
    it maps an exact problem fingerprint to the solved hole bindings plus
    the ground constraint terms they were proven against.  A hit is
    re-validated by concrete evaluation before being trusted, so a stale
    or corrupted entry degrades to a miss, never to a wrong answer.  A
    miss costs a full solve: nothing of a timed-out or unfinished loop is
    kept, so the bindings never depend on what the cache held before.

    {b Crash and concurrency safety.}  Every write goes to a unique
    temporary file in the entry's directory and is published with
    [Unix.rename], which is atomic on POSIX — readers see either the old
    complete entry or the new complete entry, never a torn one, and
    concurrent writers (worker domains, or whole concurrent processes
    sharing one cache directory) at worst overwrite each other with
    equally valid entries.  Entries are version-stamped and checksummed;
    any mismatch, truncation, or parse failure reads as a miss.  Write
    failures (permissions, full disk) are swallowed: the cache can slow a
    run down by missing, but it can never break one. *)

type t
(** An open cache handle.  Handles are safe to share across domains: the
    hit/miss tallies are atomic and the store itself is append-only
    files published by atomic rename. *)

val format_version : int
(** Bumped whenever the entry encoding changes; entries stamped with any
    other version read as misses. *)

val open_dir : string -> t
(** Opens (creating if needed, parents included) a cache rooted at the
    given directory.  Raises [Unix.Unix_error] if the directory cannot be
    created or is not writable. *)

val dir : t -> string

(** {1 Fingerprints} *)

val fingerprint : string -> string
(** SHA-256 hex of a canonical key document.  Callers build the document
    from {!Term.serialize} output plus option lines; this just hashes. *)

(** {1 Per-handle accounting}

    The one tally of this handle's lookups and writes: plain atomics on
    the handle, always on, never reset.  Whoever reports them reads them
    here — the CLI, the bench harness, and the [owl serve] daemon, whose
    cache-stats reply carries them and whose metrics reply derives its
    [cache.hit] / [cache.miss] / [cache.stale] / [cache.write] rows from
    the same reading. *)

type counters = {
  hits : int;  (** validated result hits *)
  misses : int;  (** entry absent *)
  stale : int;
      (** entry present but unusable: version mismatch, truncation,
          checksum or parse failure, or failed re-validation *)
  writes : int;  (** entries successfully published *)
}

val counters : t -> counters

(** {1 Result tier} *)

val store_result :
  t ->
  fp:string ->
  bindings:(string * Bitvec.t) list ->
  constraints:Term.t list ->
  unit
(** Publishes solved hole bindings for an exact problem fingerprint,
    together with the ground constraint terms the solve proved them
    against (the evidence a later {!lookup_result} re-checks).
    Best-effort: write failures are swallowed. *)

val lookup_result :
  t ->
  fp:string ->
  validate:((string * Bitvec.t) list -> Term.t list -> bool) ->
  (string * Bitvec.t) list option
(** Looks up an exact fingerprint.  On a structurally sound entry the
    [validate] callback receives the stored bindings and constraint terms
    and must confirm them (the engine evaluates every constraint
    concretely under the bindings); [false] — or any exception — marks
    the entry stale and returns [None].  Only a validated entry counts as
    a hit. *)

(** {1 Maintenance (the [owl cache] subcommands)} *)

type disk_stats = { result_entries : int; total_bytes : int }

val disk_stats : t -> disk_stats

val clear : t -> int
(** Removes every result entry (and stray temporary file); returns how
    many files were deleted.  The directory structure is kept.  A [w/]
    directory left by an older build (the retired warm-start tier) is
    neither read nor swept; it may be deleted by hand. *)

(** {1 In-process LRU}

    The hot tier the [owl serve] daemon puts in front of this store: a
    bounded, mutex-guarded, string-keyed LRU mapping problem fingerprints
    to already-computed values (encoded replies, in the daemon), so repeat
    problems from any client are answered without touching the solver or
    the disk.  Purely in-memory; nothing here survives the process.
    Safe to share across domains and threads — every operation takes the
    internal lock for its pointer surgery only.

    Accounting is per handle, like the on-disk tier's: {!stats} is the
    one tally, and the daemon derives its [cache.hot.hit] /
    [cache.hot.miss] / [cache.hot.eviction] metric rows from it. *)
module Lru : sig
  type 'v t

  val create : capacity:int -> 'v t
  (** A tier holding at most [capacity] entries; least-recently-used
      entries are evicted to make room.  [capacity = 0] is a valid
      always-miss tier ({!add} is a no-op), the [--hot-tier-size 0]
      escape hatch.  Raises [Invalid_argument] if [capacity < 0]. *)

  val capacity : 'v t -> int

  val find : ?count:bool -> 'v t -> string -> 'v option
  (** O(1); a hit refreshes the entry's recency.  [~count:false] leaves
      the hit and miss tallies alone: a re-probe for a request whose
      first probe already counted (default [true]). *)

  val add : 'v t -> string -> 'v -> unit
  (** Inserts or overwrites, evicting from the cold end on overflow. *)

  type stats = { hits : int; misses : int; evictions : int; size : int }

  val stats : 'v t -> stats
end

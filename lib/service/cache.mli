(** Content-addressed on-disk result cache.

    Keys are stable hashes of {e what determines the result}: the
    Looplang source bytes, an analysis knob fingerprint ({!Keys}), and
    the code revision ([LOOPA_GIT_REV], "unknown" when unset) — so a
    source edit, a knob change or a rebuild each miss cleanly, and an
    unchanged re-run is a pure disk read that skips compile+classify
    entirely.

    Durability contract: one JSON document per entry, written to a temp
    file in the cache directory and [rename(2)]d into place — concurrent
    writers of the same key race atomically (last rename wins) and a
    reader never observes a partial document. A bad entry — unreadable,
    unparseable, or not self-identifying with its own key — is a {e miss},
    never a crash, and the poisoned file is dropped.

    Eviction is size-capped LRU (recency seeded from file mtimes at
    {!open_dir}, tracked in memory per handle afterwards).

    Telemetry: [cache.hit] / [cache.miss] / [cache.evict] counters
    through {!Obs.Telemetry} (no-ops while telemetry is disabled),
    plus per-handle {!stats}. *)

type t

(** 256 MiB. *)
val default_max_bytes : int

(** Open (creating if needed, parents included) a cache directory. *)
val open_dir : ?max_bytes:int -> string -> t

(** [key ~source ~fingerprint] — 16 hex chars; includes [LOOPA_GIT_REV].
    Pure apart from the environment read. *)
val key : source:string -> fingerprint:string -> string

(** The cached value for a key, bumping its recency — or [None] on any
    kind of miss (absent, corrupt, foreign). *)
val find : t -> string -> Util.Json.t option

(** Atomically write (or overwrite) an entry, then evict
    least-recently-used entries while the store exceeds its cap. *)
val store : t -> string -> Util.Json.t -> unit

(** [(hits, misses, evictions)] observed through this handle. *)
val stats : t -> int * int * int

val size_bytes : t -> int

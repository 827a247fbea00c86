(** The artifact store: a content-addressed, crash-safe cache.

    Two backends share one interface: an in-process [Memory] store
    (what the harness modules default to, replacing their former ad-hoc
    hashtables) and a [Disk] store rooted at a directory.

    {b Disk layout.}
    {v
    root/
      manifest.json             {"smokestack-store": 1}
      objects/<hh>/<id>.json    one entry per key, sharded on the
                                first two hex digits of the key id
      tmp/                      staging for atomic writes
      quarantine/               corrupt entries moved aside by find
    v}

    {b Crash safety.}  [put] writes the entry to a uniquely-named file
    under [tmp/] (same filesystem as [objects/]) and then [rename]s it
    into place, so readers only ever observe absent or complete entry
    files — a campaign killed mid-write leaves at worst a stale temp
    file, never a torn entry.  Concurrent writers of the same key both
    succeed; last rename wins, and since entries are deterministic
    functions of their key the contents agree.

    {b Corruption.}  [find] treats anything unexpected — unparsable
    JSON, a failed decode, an entry whose echoed key differs from the
    one looked up — as a {e miss}: the offending file is moved to
    [quarantine/], the [evicted] counter bumped, and the caller
    recomputes and overwrites.  A truncated or bit-flipped store can
    cost recomputation, never a crash and never a wrong answer. *)

type t

exception Incompatible of string
(** Raised by {!open_disk} when the directory exists but is not a
    store (no manifest) or was written by a different on-disk format
    version (the one recorded in [manifest.json]).  The message tells the user exactly which and
    what to do. *)

val open_disk : string -> t
(** Opens (creating directories and manifest as needed) a disk store
    rooted at the given path.  Raises {!Incompatible} as documented
    above, and [Sys_error] if the path exists but is not a
    directory. *)

val in_memory : unit -> t
(** A fresh private in-process store. *)

val root : t -> string option
(** The disk root, or [None] for a memory store. *)

val find : t -> Key.t -> Entry.t option
(** Lookup; bumps [hits]/[misses], quarantines corrupt disk entries. *)

val mem : t -> Key.t -> bool
(** Existence probe without touching counters or reading payloads
    (campaign resume uses this to size the remaining work). *)

val put : t -> Key.t -> Entry.t -> unit
(** Insert (or deterministically overwrite); bumps [writes]. *)

type stats = { hits : int; misses : int; writes : int; evicted : int }

val stats : t -> stats
val reset_stats : t -> unit

val stats_to_json : stats -> Sutil.Json.t
(** [{"hits": _, "misses": _, "writes": _, "evicted": _}] — surfaced
    by [smokestackc campaign --json] and asserted on by CI's
    warm-hit-rate check. *)

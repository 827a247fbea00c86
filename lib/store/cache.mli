(** The artifact store: a content-addressed, crash-safe cache.

    Two backends share one interface: an in-process [Memory] store
    (what the harness modules default to, replacing their former ad-hoc
    hashtables) and a [Disk] store rooted at a directory.

    {b Disk layout.}
    {v
    root/
      manifest.json        {"smokestack-store": 2}
      log/<pid>.<n>.log    append-only segments, one per writing handle
      quarantine/          copies of records find rejected
    v}
    A segment is a sequence of records: a fixed-width header
    [<id> <body length, 10 digits> <md5 hex of body>\n], then the body,
    the {!Entry.to_json} document and a newline.  A handle creates its segment with
    [O_EXCL] on its first [put] (under the next free name if one is
    taken) and appends each record with one [write]; it holds no
    descriptor between calls, so handles need no close.

    {b Index.}  [open_disk] reads every header once into a compact
    in-memory index (id prefix to segment and offset, no string per
    entry); a lookup that misses first picks up what other handles
    appended since, so their puts stay visible.  Checking for that
    costs a [stat] of [log/] and one per segment whose writer (the pid
    in its name) was still running at the last look; segments of
    exited writers are read once more and then never again.  Two
    limits: a writer whose pid this host cannot see (another host or
    pid namespace) looks exited, and a new segment can stay unseen
    until the next listing if the filesystem stamps [log/]'s mtime
    from a clock running behind this host's by more than 50 ms (2.1 s
    on whole-second filesystems).  Either costs a recomputed entry.

    {b Crash safety.}  Every record carries its body's digest.  A
    process killed mid-[put] (even by [kill -9]) leaves at most one
    torn final record, which the scan ignores; nothing is ever appended
    behind it.  Concurrent writers of the same key both succeed, and
    since entries are deterministic functions of their key either copy
    serves.  There is no [fsync]: the store survives a process kill,
    not a power loss.

    {b Corruption.}  [find] checks the header id, the body digest, the
    JSON, the entry decode, and the echoed key; any failure is a
    {e miss}: the record is copied to [quarantine/], the [evicted]
    counter bumped, its index slot dropped (another copy of the id, if
    any, is tried next), and the caller recomputes and appends.  Later
    handles do not index a record [quarantine/] holds.  A
    truncated or bit-flipped store can cost recomputation, never a
    crash and never a wrong answer. *)

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
(** Lookup; bumps [hits]/[misses], quarantines corrupt disk records. *)

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

(** Segmented byte-addressable memory.

    Models a process address space with the segments the threat model
    distinguishes: read-only data (attacker-readable, never writable —
    the P-BOX lives here), writable globals, heap, and a downward-
    growing stack.  Addresses are plain integers; address 0 is never
    mapped.  All accesses are bounds- and permission-checked; a
    violation raises {!exception:Fault}, which the interpreter turns
    into a crash outcome (the paper's "service restarts after a
    crash").

    Backing bytes are materialized on demand: each segment holds a
    page-aligned window of its extent that grows (at least doubling,
    toward the access) the first time an access falls outside it, and
    every byte outside the window reads as zero.  Nothing observable
    depends on the window — faults, permissions and {!touched_bytes}
    are defined over the whole extent — so a fresh memory costs only
    what its program touches.

    An access first tries the windows of the last two segments hit (a
    two-entry cache), then scans the segments in address order.  The
    bytecode engine ([Engine.Interp]) runs a load or store that falls
    inside either cached window itself, through the [private] record
    fields below, and calls {!load_to}/{!store_from} for every other
    access; the two must stay byte-for-byte equivalent.

    Domain-safety: no module-level state; a memory belongs to one
    prepared {!Exec.state} and therefore to one job at a time. *)

type perm = Read_only | Read_write

type fault =
  | Out_of_bounds of { addr : int; size : int; op : string }
  | Write_protected of { addr : int }
  | Null_dereference
  | Stack_overflow of { sp : int; need : int }
  | Misc of string

exception Fault of fault

val pp_fault : Format.formatter -> fault -> unit
val fault_to_string : fault -> string

type segment = {
  name : string;
  base : int;
  size : int;  (** the extent: addresses [\[base, base + size)] are mapped *)
  perm : perm;
}

(** A segment as the memory holds it: the extent above, a per-page
    touched map over the whole extent, and the materialized window
    [\[lo, lo + Bytes.length bytes)] of it.  [private] so the bytecode
    engine can run a load or store that falls inside the window without
    a call: it may read [base], [perm], [touched], [lo] and [bytes], and
    must read [lo] and [bytes] afresh on every access, since growing the
    window ({!flip_bit} too) replaces both.  Only this module writes
    them. *)
type seg = private {
  name : string;
  base : int;
  size : int;
  perm : perm;
  touched : Bytes.t;  (** one byte per page of the extent, nonzero once touched *)
  mutable lo : int;
  mutable bytes : Bytes.t;
}

(** [segs] is sorted by base.  [last] is the index of the segment the
    latest access hit and [prev] the one hit before it: the two entries
    of the segment cache, which only this module updates (a reader
    that hits [prev] may leave them as they are; only speed depends on
    their order).  An inlined access must go through
    {!load_to}/{!store_from} whenever [on_access] is set, so the hook
    fires before every access. *)
type t = private {
  segs : seg array;
  mutable last : int;
  mutable prev : int;
  mutable on_access : (unit -> unit) option;
}

val page_size : int
(** 4096; a page's touched byte is at [(addr - base) / page_size]. *)

val create : (string * int * int * perm) list -> t
(** [create segs] maps each [(name, base, size, perm)].  Segments must
    not overlap and must not contain address 0. *)

val segment : t -> string -> segment
(** Raises [Invalid_argument] for unknown names. *)

val load : t -> width:int -> int -> int64
(** Little-endian load, zero-extended.  Reads are permission-free (only
    {!store} checks [Read_only]), so the attack framework's disclosure
    primitive and diagnostics read any mapped memory through it.  Still
    bounds-checked: raises {!exception:Fault}. *)

val store : t -> width:int -> int -> int64 -> unit

val load_to : t -> width:int -> int -> Bytes.t -> int -> unit
(** [load_to t ~width addr frame off] is {!load} with the value written
    to the native-endian 64-bit slot of [frame] at byte offset [off]
    instead of returned, so the value is never boxed.  Same checks and
    faults as {!load}. *)

val store_from : t -> width:int -> int -> Bytes.t -> int -> unit
(** [store_from t ~width addr frame off] is {!store} of the value in the
    native-endian 64-bit slot of [frame] at byte offset [off]. *)

val read_bytes : t -> int -> int -> string
(** [read_bytes t addr n]; checked like {!load}. *)

val write_bytes : t -> int -> string -> unit

val write_protected : t -> int -> string -> unit
(** Loader-only write that ignores the read-only permission (used to
    initialize rodata). *)

val cstring : t -> ?max:int -> int -> string
(** Reads a NUL-terminated string starting at the address (NUL not
    included). [max] defaults to 1 MiB. *)

val touched_bytes : t -> int
(** Total bytes of pages touched so far, across all segments — the
    max-RSS proxy used by the Figure 4 experiment.  Costs the pages of
    the materialized windows, not of the extents. *)

(** {1 Fault injection} — consumed by [lib/fault]. *)

val set_access_hook : t -> (unit -> unit) option -> unit
(** Install (or clear) a hook fired before {e every} checked access —
    loads, stores, string reads, byte blits.  The fault-injection
    layer uses it to flip a bit when the owning state's instruction
    counter crosses a plan's trigger; the hook must not itself call
    the checked accessors (use {!flip_bit}, which writes the backing
    bytes directly, materializing them first).  Costs one branch per
    access when [None]. *)

val flip_bit : t -> addr:int -> bit:int -> unit
(** Flip one bit of one mapped byte, ignoring permissions (this models
    a hardware fault, not a program store).  [bit] is in [\[0, 7\]].
    Raises [Invalid_argument] for unmapped addresses. *)

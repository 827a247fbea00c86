(** Overflow payload construction.

    A payload is the byte string an attacker feeds a vulnerable read:
    filler up to the buffer length, then precise values at chosen
    offsets past it.  Offsets are {e relative to the buffer start}; the
    crafting fails loudly on overlapping writes so attack code can't
    silently build nonsense.  Writes carry an optional {e label}
    (typically the targeted slot's name) so the failure message names
    the colliding slots and their byte ranges — synthesized gadget
    chains need that diagnostic to explain a wasted attempt. *)

type write = { rel : int; data : string; label : string }

val u64 : ?label:string -> int -> int64 -> write
(** [u64 rel v] — write the 8 little-endian bytes of [v] at [rel]. *)

val bytes : int -> string -> write
(** An unlabelled write of raw bytes. *)

val craft : len:int -> write list -> string
(** [craft ~len writes] returns a string of [max len (end of last
    write)] bytes: filler ['A'] everywhere not covered by a write.
    Raises [Invalid_argument] on overlapping writes (the message names
    both writes' labels and byte ranges) or negative offsets.  Gaps
    between writes are filled with ['A'] — note that a {e linear}
    overflow cannot skip bytes; modelling a non-linear write
    (librelp's snprintf gap) is done by the app driving separate reads,
    not by this function. *)

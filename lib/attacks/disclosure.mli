(** Memory-disclosure primitives (threat model §III-B: full read access
    to mapped memory).

    Attack code calls these from inside an input callback — i.e. while
    the vulnerable program is live — to scan the stack for recognizable
    values ("using the semantics of the underlying program to reverse
    engineer a randomized stack layout", §II-C).  For the static
    defenses the layout learned in one probe run carries over to the
    exploit run; against Smokestack it expires with the invocation. *)

val find_u64 : Machine.Exec.state -> base:int -> len:int -> int64 -> int list
(** Offsets within [base, base+len) (8-byte stride 1 scan) where the
    64-bit little-endian value occurs. *)

val find_bytes : Machine.Exec.state -> base:int -> len:int -> string -> int list

val live_stack : Machine.Exec.state -> int * int
(** [(base, len)] of the currently live stack region [sp, stack_top). *)

(** Int64 interval domain for the bounds dataflow (DESIGN.md §10).

    An interval abstracts the set of runtime int64 values a register or
    memory slot may hold.  [None] bounds mean unbounded on that side;
    the lattice top is [(None, None)].  Empty intervals (lo > hi) arise
    from branch refinement of dead paths and behave as bottom.

    All transfer functions are overflow-aware: any operation whose
    concrete counterpart can wrap returns an unbounded side rather than
    a wrong bound.  Narrow memory traffic follows the VM's semantics
    exactly — loads are {e zero}-extended ([Machine.Memory.load]), so
    the value read back from a [w]-byte slot always lies in
    [[0, 2^(8w)-1]]. *)

type t = { lo : int64 option; hi : int64 option }

val top : t
val const : int64 -> t
val of_bounds : int64 -> int64 -> t
val is_top : t -> bool
val is_empty : t -> bool

val equal : t -> t -> bool
val join : t -> t -> t
val widen : old:t -> t -> t
(** Standard widening: a bound that moved outward jumps to unbounded. *)

val meet : t -> t -> t

(** {2 Arithmetic transfer functions} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val sdiv : t -> t -> t
val udiv : t -> t -> t
val srem : t -> t -> t
val urem : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t

val sext : width:int -> t -> t
(** Sign-extend from the low [width] bytes ([width < 8] narrows). *)

val zext : width:int -> t -> t
(** The VM's [Trunc]: keep the low [width] bytes, zero-extended. *)

val of_load : width:int -> t
(** Value range of a [width]-byte load (zero-extended). *)

val store_narrow : width:int -> t -> t
(** Abstract value a [width]-byte store leaves in the slot, accounting
    for the truncate-on-store / zero-extend-on-load round trip. *)

(** {2 Branch refinement} *)

val refine : Ir.Instr.icmp -> taken:bool -> t -> rhs:t -> t
(** [refine op ~taken lhs ~rhs] shrinks [lhs] assuming
    [lhs `op` rhs = taken].  Unsigned comparisons refine only when sign
    information permits; the result is always a superset of the exact
    refinement (sound). *)

val contains : t -> lo:int64 -> hi:int64 -> bool
(** [contains t ~lo ~hi]: every value of [t] lies within [[lo, hi]].
    Empty intervals are contained in everything. *)

val pp : Format.formatter -> t -> unit

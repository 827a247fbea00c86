(** Typed gadget model — step 1 of the attack compiler (DESIGN.md §15).

    A gadget is a primitive the synthesizer can invoke: classified from
    the static evidence {!Analysis.Dop} and {!Analysis.Funcan} already
    produce (pair kind + victim role), enriched with two miners over
    the IR:

    - {e slot compare constants}: equality tests of a slot's loaded
      value against an immediate ([req == 1]) give branch-flip gadgets
      their target values;
    - {e global flip targets}: equality tests of a writable global
      against an immediate whose initial value differs ([auth == 4919])
      give chains a semantically checkable goal — drive the global to
      the compared constant.

    Arithmetic gadgets ({!constructor:Arith}) are not mined statically:
    the planner discovers them by {e semantic probing} of the
    attacker's own unhardened replica (see {!Plan}), which is how a
    STEROIDS-style compiler learns what a dispatcher loop computes
    without pattern-matching its code. *)

type op = Add | Sub | Mov

type kind =
  | Deliver
      (** write primitive: an overflow-capable buffer whose unbounded
          write is fed by [read_input] — the chain's injection point *)
  | Branch_flip of int64 list
      (** the victim feeds a conditional branch; the payload lists the
          mined compare constants for the slot (may be empty) *)
  | Ptr_aim  (** deref primitive: the victim feeds a load/store address *)
  | Wild_value
      (** write primitive: the victim's value is written through a wild
          pointer *)
  | Leak  (** read primitive: the victim flows into a call argument *)
  | Call_redirect  (** the victim reaches an indirect-call target *)
  | Arith of { aop : op; sel_slot : string; sel_value : int64; dst_first : bool }
      (** probed dispatcher operation: delivering [sel_slot = sel_value]
          makes the loop body compute [*p1 aop= *p2] ([dst_first]) or
          [*p2 aop= *p1] over the frame's first two pointer slots *)

type t = {
  gid : string;  (** stable digest of (kind tag, func, slot, detail) *)
  kind : kind;
  func : string;  (** function owning the slot *)
  slot : string;
  pair_ids : string list;
      (** the {!Analysis.Dop} pairs this gadget is grounded in —
          [Deliver] collects every pair using the buffer, victim-side
          gadgets carry their own pair *)
}

val v : kind -> func:string -> slot:string -> pair_ids:string list -> t
(** Constructor computing [gid]; the planner uses it for probed
    {!constructor:Arith} gadgets. *)

val mined_slot_consts : Ir.Func.t -> (string * int64 list) list
(** Per-slot [Eq]/[Ne] compare immediates, slots in alloca order,
    constants deduplicated in first-seen order.  Follows one [Gep]
    (offset 0) and [Sext]/[Trunc] hop, matching [-O0] codegen. *)

val global_init : Ir.Prog.t -> string -> int64 option
(** Initial value of a writable scalar (≤ 8 byte) global, decoded from
    its padded init bytes; [None] for read-only, aggregate or absent
    globals. *)

val mined_global_flips : Ir.Prog.t -> (string * int64 * int64) list
(** [(global, initial value, compared constant)] for every writable
    scalar global compared [Eq]/[Ne] against an immediate that differs
    from its initial bytes — the chain goals.  Program order, deduped. *)

val harvest :
  Ir.Prog.t -> Analysis.Funcan.t list -> Analysis.Dop.pair list -> t list
(** Classify pairs and slots into gadgets, deterministic order:
    [Deliver] gadgets in analysis order, then one victim gadget per
    (pair, role). *)

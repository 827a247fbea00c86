(** Imperative IR construction.

    A builder holds a current insertion block within a function; every
    emit-style call appends there and returns the defined register (if
    any).  The MiniC lowering and the hand-built app models both
    construct IR through this interface.

    Appending is O(1): emitted instructions reach the block's [instrs]
    together, when its terminator is set or {!start_block} moves the
    builder on. *)

type t

val create : Func.t -> t
(** Builder positioned at a fresh entry block named ["entry"]. *)

val start_block : t -> string -> Func.block
(** Creates a block with the given label and moves the insertion point
    to it. *)

val fresh_label : t -> string -> string

(** {1 Emitters} — each appends an instruction and returns its result
    register. *)

val alloca : t -> ?name:string -> Ty.t -> Instr.reg
val alloca_entry : t -> ?name:string -> Ty.t -> Instr.reg
(** Like {!alloca}, but appended to the end of the function's entry
    block wherever the insertion point is: storage for any local,
    wherever it is declared, is claimed at function entry (the clang
    [-O0] shape, which lets the Smokestack pass see the whole frame). *)

val alloca_vla : t -> ?name:string -> Ty.t -> count:Instr.operand -> Instr.reg
val load : t -> Ty.t -> Instr.operand -> Instr.reg
val store : t -> Ty.t -> value:Instr.operand -> addr:Instr.operand -> unit
val gep : t -> Instr.operand -> offset:int -> Instr.reg
val gep_idx : t -> Instr.operand -> offset:int -> index:Instr.operand -> scale:int -> Instr.reg
val binop : t -> Instr.binop -> Instr.operand -> Instr.operand -> Instr.reg
val icmp : t -> Instr.icmp -> Instr.operand -> Instr.operand -> Instr.reg
val select : t -> Instr.operand -> Instr.operand -> Instr.operand -> Instr.reg
val sext : t -> width:int -> Instr.operand -> Instr.reg
val trunc : t -> width:int -> Instr.operand -> Instr.reg
val call : t -> ?result:bool -> string -> Instr.operand list -> Instr.reg option
val call_ind : t -> ?result:bool -> Instr.operand -> Instr.operand list -> Instr.reg option
val intrinsic : t -> string -> Instr.operand list -> unit

(** {1 Terminators} *)

val ret : t -> Instr.operand option -> unit
val br : t -> string -> unit
val cond_br : t -> Instr.operand -> if_true:string -> if_false:string -> unit
val terminated : t -> bool
(** True once the current block's terminator has been set explicitly. *)

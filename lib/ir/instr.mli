(** IR instructions.

    The IR is a register machine over an unbounded set of per-function
    virtual registers holding 64-bit values (pointers included).  It
    deliberately sits at the clang [-O0] level: every source local is an
    [alloca] accessed through [load]/[store], because Smokestack's
    transformation is defined over allocas.  Memory addressing is
    byte-precise via {!constructor:Gep}. *)

type reg = int
(** Virtual register index, unique within a function. *)

type operand =
  | Reg of reg
  | Imm of int64
  | Global of string  (** address of a global (data or rodata) *)
  | Func_ref of string  (** opaque function token, callable via [Call_ind] *)

type binop =
  | Add
  | Sub
  | Mul
  | Sdiv
  | Udiv
  | Srem
  | Urem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule

type t =
  | Alloca of {
      dst : reg;
      ty : Ty.t;
      count : operand option;  (** [Some n] for VLAs: [n] elements of [ty] *)
      name : string;  (** source-level variable name, for diagnostics *)
    }
  | Load of { dst : reg; ty : Ty.t; addr : operand }
      (** [ty] must be scalar; loads [size ty] bytes, zero-extended into
          the register ([I1]/[I8]/[I16]/[I32] are unsigned in registers;
          use {!constructor:Sext} to sign-extend). *)
  | Store of { ty : Ty.t; value : operand; addr : operand }
  | Gep of {
      dst : reg;
      base : operand;
      offset : int;  (** constant byte offset *)
      index : (operand * int) option;  (** [Some (i, scale)] adds [i * scale] bytes *)
    }
  | Binop of { dst : reg; op : binop; lhs : operand; rhs : operand }
  | Icmp of { dst : reg; op : icmp; lhs : operand; rhs : operand }
  | Select of { dst : reg; cond : operand; if_true : operand; if_false : operand }
  | Sext of { dst : reg; width : int; value : operand }
      (** sign-extend the low [width] bytes of [value] *)
  | Trunc of { dst : reg; width : int; value : operand }
      (** zero out all but the low [width] bytes *)
  | Call of { dst : reg option; callee : string; args : operand list }
  | Call_ind of { dst : reg option; callee : operand; args : operand list }
  | Intrinsic of { dst : reg option; name : string; args : operand list }
      (** runtime hooks (RNG draws, Smokestack checks, VM services);
          resolved by the machine's intrinsic table *)

type terminator =
  | Ret of operand option
  | Br of string
  | Cond_br of { cond : operand; if_true : string; if_false : string }
  | Unreachable

val defined_reg : t -> reg option
(** The register an instruction defines, if any. *)

val dst : t -> reg
(** [r] when [defined_reg i = Some r], else [-1]; allocates nothing. *)

val operands : t -> operand list
(** All operands read by an instruction. *)

val iter_operands : ('a -> operand -> unit) -> 'a -> t -> unit
(** [iter_operands f x i] calls [f x] on each of {!operands}[ i], in
    order, without building the list. *)

val terminator_operands : terminator -> operand list
val pp : Format.formatter -> t -> unit
val pp_terminator : Format.formatter -> terminator -> unit

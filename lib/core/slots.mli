(** Discovering stack allocations (paper §III-D).

    The analysis gathers, per function, the size and alignment of every
    automatic variable: the static allocas of the entry block (what the
    permutation engine will reorder) and the VLAs that must instead be
    padded at runtime. *)

type slot = {
  reg : Ir.Instr.reg;  (** register the alloca defines *)
  ty : Ir.Ty.t;
  size : int;
  alignment : int;
  var_name : string;
}

type t = {
  func_name : string;
  static_slots : slot list;  (** entry-block fixed-size allocas, program order *)
  vla_count : int;  (** dynamic allocas anywhere in the function *)
}

val discover : Ir.Func.t -> t

val meta : t -> (int * int) array
(** [(size, alignment)] per static slot, in program order — the
    permutation engine's input. *)

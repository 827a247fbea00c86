(** IR-to-bytecode compiler for the fast execution engine.

    Flattens each {!Ir.Func.t} into a dense instruction array with every
    name pre-resolved: block labels become instruction indices, SSA
    registers become slots of an unboxed frame, immediates, globals and
    function references become constant slots of the function's frame
    template, direct callees become function indices, intrinsic names
    become slots into a per-run closure table, and each IR operator
    becomes its own op.  {!Interp} executes the result with no hashtable
    lookups, list traversals or boxed [int64]s on the hot path.

    An operand is the byte offset of a native-endian 64-bit slot of the
    frame: registers [\[0, nregs)], one sink slot (discarded results),
    then the constants.

    Resolution failures never fail compilation: the reference
    interpreter only raises when a broken operand is actually
    evaluated, so an op that reads the operand unconditionally compiles
    to {!constructor:Oraise}, which replays the exact reference
    exception at the exact evaluation point, and a select arm or call
    argument compiles to [lnot i], raising [traps.(i)] when read. *)

type op =
  | Oadd of { dst : int; lhs : int; rhs : int }
  | Osub of { dst : int; lhs : int; rhs : int }
  | Omul of { dst : int; lhs : int; rhs : int }
  | Osdiv of { dst : int; lhs : int; rhs : int }
  | Oudiv of { dst : int; lhs : int; rhs : int }
  | Osrem of { dst : int; lhs : int; rhs : int }
  | Ourem of { dst : int; lhs : int; rhs : int }
  | Oand of { dst : int; lhs : int; rhs : int }
  | Oor of { dst : int; lhs : int; rhs : int }
  | Oxor of { dst : int; lhs : int; rhs : int }
  | Oshl of { dst : int; lhs : int; rhs : int }
  | Olshr of { dst : int; lhs : int; rhs : int }
  | Oashr of { dst : int; lhs : int; rhs : int }
  | Oeq of { dst : int; lhs : int; rhs : int }
  | One of { dst : int; lhs : int; rhs : int }
  | Oslt of { dst : int; lhs : int; rhs : int }
  | Osle of { dst : int; lhs : int; rhs : int }
  | Osgt of { dst : int; lhs : int; rhs : int }
  | Osge of { dst : int; lhs : int; rhs : int }
  | Oult of { dst : int; lhs : int; rhs : int }
  | Oule of { dst : int; lhs : int; rhs : int }
  | Oselect of { dst : int; cond : int; if_true : int; if_false : int }
  | Osext of { dst : int; shift : int; value : int }
  | Otrunc of { dst : int; shift : int; value : int }
  | Ogep of { dst : int; base : int; offset : int; index : int; scale : int }
  | Oload of { dst : int; width : int; addr : int }
  | Ostore of { width : int; value : int; addr : int }
  | Oalloca of { dst : int; elt : int; align : int; count : int }
  | Ocall of { dst : int; fidx : int; args : int array }
  | Obuiltin of { dst : int; name : string; args : int array }
  | Ocall_unknown of { name : string; args : int array }
  | Ocall_ind of { dst : int; callee : int; args : int array }
  | Ointrinsic of { dst : int; slot : int; name : string; args : int array }
  | Ojmp of int
  | Ocondbr of { cond : int; if_true : int; if_false : int }
  | Oret of int
  | Ounreachable of string
  | Oraise of { counted : bool; cost : float; exn : exn }
  | Ogep_load of {
      dst : int;
      base : int;
      offset : int;
      index : int;
      scale : int;
      width : int;
      ldst : int;
    }
  | Oload_load of {
      dst : int;
      width : int;
      addr : int;
      dst2 : int;
      width2 : int;
      addr2 : int;
    }
  | Oadd_store of { dst : int; lhs : int; rhs : int; width : int; addr : int }
  | Ostore_jmp of { width : int; value : int; addr : int; target : int }
  | One_condbr of {
      dst : int;
      lhs : int;
      rhs : int;
      if_true : int;
      if_false : int;
    }
  | Oslt_condbr of {
      dst : int;
      lhs : int;
      rhs : int;
      ndst : int;
      if_true : int;
      if_false : int;
    }
  | Oeq_condbr of {
      dst : int;
      lhs : int;
      rhs : int;
      ndst : int;
      if_true : int;
      if_false : int;
    }
(** The last seven are fused ops: a run of two or three ops that the
    dispatch loop would execute back to back ([Ogep_load]: a gep and a
    load of its result; [Oload_load]: two loads; [Oadd_store]: an add
    and a store of its result; [Ostore_jmp]: a store and the block's
    jump; [One_condbr]: a [ne] and the branch on it; [Oslt_condbr] and
    [Oeq_condbr]: a compare, a [ne] of its result against 0, and the
    branch on that), rewritten in place of the run's first op.  The
    covered slots keep their own ops, so the code array has one slot
    per instruction; a run never covers a block start or an
    {!constructor:Oraise}. *)

type bfunc = {
  fname : string;
  params : int array;  (** frame offset of each parameter *)
  frame : Bytes.t;  (** template: zero registers and sink, then constants *)
  traps : exn array;
  code : op array;
}

type program = {
  funcs : bfunc array;  (** in the order of the program's functions *)
  index : (string, int) Hashtbl.t;  (** function name -> index *)
  intrinsic_names : string array;  (** intrinsic slot -> name *)
}

val span : op -> int
(** How many slots an op covers: 2 or 3 for a fused op, 1 otherwise.
    Execution continues [span op] slots after it. *)

val token_base : int
(** = {!Machine.Exec.func_token_base}; function [i] has token
    [token_base + 16 * i], so indirect-call tokens resolve to function
    indices with two integer operations. *)

val compile : Machine.Exec.state -> program
(** Compiles the state's program against its global/function-token
    layout.  That layout is deterministic per program, so the result
    runs any fresh state of the same program, as long as the IR is not
    changed after compiling; the image does not check this.  Holding
    the image for a program's lifetime is {!Backend.backend}'s [load]. *)

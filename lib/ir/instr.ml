type reg = int

type operand =
  | Reg of reg
  | Imm of int64
  | Global of string
  | Func_ref of string

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
  | Alloca of { dst : reg; ty : Ty.t; count : operand option; name : string }
  | Load of { dst : reg; ty : Ty.t; addr : operand }
  | Store of { ty : Ty.t; value : operand; addr : operand }
  | Gep of {
      dst : reg;
      base : operand;
      offset : int;
      index : (operand * int) option;
    }
  | Binop of { dst : reg; op : binop; lhs : operand; rhs : operand }
  | Icmp of { dst : reg; op : icmp; lhs : operand; rhs : operand }
  | Select of { dst : reg; cond : operand; if_true : operand; if_false : operand }
  | Sext of { dst : reg; width : int; value : operand }
  | Trunc of { dst : reg; width : int; value : operand }
  | Call of { dst : reg option; callee : string; args : operand list }
  | Call_ind of { dst : reg option; callee : operand; args : operand list }
  | Intrinsic of { dst : reg option; name : string; args : operand list }

type terminator =
  | Ret of operand option
  | Br of string
  | Cond_br of { cond : operand; if_true : string; if_false : string }
  | Unreachable

let defined_reg = function
  | Alloca { dst; _ }
  | Load { dst; _ }
  | Gep { dst; _ }
  | Binop { dst; _ }
  | Icmp { dst; _ }
  | Select { dst; _ }
  | Sext { dst; _ }
  | Trunc { dst; _ } ->
      Some dst
  | Store _ -> None
  | Call { dst; _ } | Call_ind { dst; _ } | Intrinsic { dst; _ } -> dst

let dst = function
  | Alloca { dst; _ }
  | Load { dst; _ }
  | Gep { dst; _ }
  | Binop { dst; _ }
  | Icmp { dst; _ }
  | Select { dst; _ }
  | Sext { dst; _ }
  | Trunc { dst; _ } ->
      dst
  | Store _ -> -1
  | Call { dst; _ } | Call_ind { dst; _ } | Intrinsic { dst; _ } -> (
      match dst with Some r -> r | None -> -1)

let rec iter_list f x = function
  | [] -> ()
  | o :: rest ->
      f x o;
      iter_list f x rest

let iter_operands f x = function
  | Alloca { count = Some c; _ } -> f x c
  | Alloca { count = None; _ } -> ()
  | Load { addr; _ } -> f x addr
  | Store { value; addr; _ } ->
      f x value;
      f x addr
  | Gep { base; index; _ } -> (
      f x base;
      match index with Some (i, _) -> f x i | None -> ())
  | Binop { lhs; rhs; _ } | Icmp { lhs; rhs; _ } ->
      f x lhs;
      f x rhs
  | Select { cond; if_true; if_false; _ } ->
      f x cond;
      f x if_true;
      f x if_false
  | Sext { value; _ } | Trunc { value; _ } -> f x value
  | Call { args; _ } | Intrinsic { args; _ } -> iter_list f x args
  | Call_ind { callee; args; _ } ->
      f x callee;
      iter_list f x args

let operands = function
  | Alloca { count; _ } -> Option.to_list count
  | Load { addr; _ } -> [ addr ]
  | Store { value; addr; _ } -> [ value; addr ]
  | Gep { base; index; _ } -> base :: (match index with Some (i, _) -> [ i ] | None -> [])
  | Binop { lhs; rhs; _ } | Icmp { lhs; rhs; _ } -> [ lhs; rhs ]
  | Select { cond; if_true; if_false; _ } -> [ cond; if_true; if_false ]
  | Sext { value; _ } | Trunc { value; _ } -> [ value ]
  | Call { args; _ } | Intrinsic { args; _ } -> args
  | Call_ind { callee; args; _ } -> callee :: args

let terminator_operands = function
  | Ret (Some v) -> [ v ]
  | Ret None | Br _ | Unreachable -> []
  | Cond_br { cond; _ } -> [ cond ]

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Sdiv -> "sdiv"
  | Udiv -> "udiv"
  | Srem -> "srem"
  | Urem -> "urem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Ashr -> "ashr"

let icmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Slt -> "slt"
  | Sle -> "sle"
  | Sgt -> "sgt"
  | Sge -> "sge"
  | Ult -> "ult"
  | Ule -> "ule"

let pp_operand fmt = function
  | Reg r -> Format.fprintf fmt "%%r%d" r
  | Imm i -> Format.fprintf fmt "%Ld" i
  | Global g -> Format.fprintf fmt "@%s" g
  | Func_ref f -> Format.fprintf fmt "@fn.%s" f

let pp_dst fmt = function
  | Some d -> Format.fprintf fmt "%%r%d = " d
  | None -> ()

let pp_args fmt args =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    pp_operand fmt args

let pp fmt = function
  | Alloca { dst; ty; count; name } -> (
      match count with
      | None -> Format.fprintf fmt "%%r%d = alloca %a ; %s" dst Ty.pp ty name
      | Some c ->
          Format.fprintf fmt "%%r%d = alloca %a, count %a ; %s (vla)" dst Ty.pp
            ty pp_operand c name)
  | Load { dst; ty; addr } ->
      Format.fprintf fmt "%%r%d = load %a, %a" dst Ty.pp ty pp_operand addr
  | Store { ty; value; addr } ->
      Format.fprintf fmt "store %a %a, %a" Ty.pp ty pp_operand value pp_operand addr
  | Gep { dst; base; offset; index } -> (
      match index with
      | None -> Format.fprintf fmt "%%r%d = gep %a, %d" dst pp_operand base offset
      | Some (i, scale) ->
          Format.fprintf fmt "%%r%d = gep %a, %d, %a * %d" dst pp_operand base
            offset pp_operand i scale)
  | Binop { dst; op; lhs; rhs } ->
      Format.fprintf fmt "%%r%d = %s %a, %a" dst (binop_to_string op) pp_operand
        lhs pp_operand rhs
  | Icmp { dst; op; lhs; rhs } ->
      Format.fprintf fmt "%%r%d = icmp %s %a, %a" dst (icmp_to_string op)
        pp_operand lhs pp_operand rhs
  | Select { dst; cond; if_true; if_false } ->
      Format.fprintf fmt "%%r%d = select %a, %a, %a" dst pp_operand cond
        pp_operand if_true pp_operand if_false
  | Sext { dst; width; value } ->
      Format.fprintf fmt "%%r%d = sext.%d %a" dst (width * 8) pp_operand value
  | Trunc { dst; width; value } ->
      Format.fprintf fmt "%%r%d = trunc.%d %a" dst (width * 8) pp_operand value
  | Call { dst; callee; args } ->
      Format.fprintf fmt "%acall @%s(%a)" pp_dst dst callee pp_args args
  | Call_ind { dst; callee; args } ->
      Format.fprintf fmt "%acall_ind %a(%a)" pp_dst dst pp_operand callee pp_args args
  | Intrinsic { dst; name; args } ->
      Format.fprintf fmt "%aintrinsic @%s(%a)" pp_dst dst name pp_args args

let pp_terminator fmt = function
  | Ret None -> Format.pp_print_string fmt "ret void"
  | Ret (Some v) -> Format.fprintf fmt "ret %a" pp_operand v
  | Br l -> Format.fprintf fmt "br %%%s" l
  | Cond_br { cond; if_true; if_false } ->
      Format.fprintf fmt "br %a, %%%s, %%%s" pp_operand cond if_true if_false
  | Unreachable -> Format.pp_print_string fmt "unreachable"

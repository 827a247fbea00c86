let builtins =
  [
    ("memcpy", Some [ Ctype.Ptr Ctype.Void; Ctype.Ptr Ctype.Void; Ctype.Long ], Ctype.Ptr Ctype.Void);
    ("memset", Some [ Ctype.Ptr Ctype.Void; Ctype.Int; Ctype.Long ], Ctype.Ptr Ctype.Void);
    ("memcmp", Some [ Ctype.Ptr Ctype.Void; Ctype.Ptr Ctype.Void; Ctype.Long ], Ctype.Int);
    ("strlen", Some [ Ctype.Ptr Ctype.Char ], Ctype.Long);
    ("strcpy", Some [ Ctype.Ptr Ctype.Char; Ctype.Ptr Ctype.Char ], Ctype.Ptr Ctype.Char);
    ("strncpy", Some [ Ctype.Ptr Ctype.Char; Ctype.Ptr Ctype.Char; Ctype.Long ], Ctype.Ptr Ctype.Char);
    ("snprintf_cat", Some [ Ctype.Ptr Ctype.Char; Ctype.Long; Ctype.Ptr Ctype.Char ], Ctype.Long);
    ("malloc", Some [ Ctype.Long ], Ctype.Ptr Ctype.Void);
    ("free", Some [ Ctype.Ptr Ctype.Void ], Ctype.Void);
    ("print_int", Some [ Ctype.Long ], Ctype.Void);
    ("print_char", Some [ Ctype.Int ], Ctype.Void);
    ("print_str", Some [ Ctype.Ptr Ctype.Char ], Ctype.Void);
    ("print_newline", Some [], Ctype.Void);
    ("read_input", Some [ Ctype.Ptr Ctype.Char; Ctype.Long ], Ctype.Long);
    ("input_byte", Some [], Ctype.Int);
    ("exit", Some [ Ctype.Int ], Ctype.Void);
    ("abort", Some [], Ctype.Void);
  ]

type genv = {
  prog : Ir.Prog.t;
  structs : (string, (string * Ctype.t) list) Hashtbl.t;
  funcs : (string, Ctype.t list option * Ctype.t) Hashtbl.t;
  globals : (string, Ctype.t) Hashtbl.t;
  strings : (string, string) Hashtbl.t;
  mutable str_count : int;
}

type binding = { addr : Ir.Instr.operand; bty : Ctype.t }

type fenv = {
  genv : genv;
  b : Ir.Builder.t;
  fret : Ctype.t;
  mutable scopes : (string * binding) list list;
  mutable loops : (string * string option) list;
      (* (break target, continue target — [None] inside a switch that is
         not nested in a loop) *)
  mutable scratch : Ir.Instr.reg option;
}

(* An rvalue: a 64-bit register/immediate plus its C type.  Integers
   narrower than 64 bits are kept sign-extended. *)
type value = { v : Ir.Instr.operand; ty : Ctype.t }

let rec ir_ty genv loc (t : Ctype.t) : Ir.Ty.t =
  match t with
  | Ctype.Void -> Srcloc.error loc "void is not a value type here"
  | Ctype.Char -> Ir.Ty.I8
  | Ctype.Short -> Ir.Ty.I16
  | Ctype.Int -> Ir.Ty.I32
  | Ctype.Long -> Ir.Ty.I64
  | Ctype.Ptr _ -> Ir.Ty.Ptr
  | Ctype.Array (e, n) -> Ir.Ty.Array (ir_ty genv loc e, n)
  | Ctype.Struct s -> (
      match Hashtbl.find_opt genv.structs s with
      | Some fields ->
          Ir.Ty.Struct
            { name = s; fields = List.map (fun (_, ft) -> ir_ty genv loc ft) fields }
      | None -> Srcloc.error loc "unknown struct %s" s)

let sizeof genv loc t = Ir.Ty.size (ir_ty genv loc t)

let field_info genv loc sname fname =
  match Hashtbl.find_opt genv.structs sname with
  | None -> Srcloc.error loc "unknown struct %s" sname
  | Some fields -> (
      let offsets =
        Ir.Ty.struct_field_offsets
          (List.map (fun (_, ft) -> ir_ty genv loc ft) fields)
      in
      match
        List.find_opt
          (fun ((name, _), _) -> String.equal name fname)
          (List.combine fields offsets)
      with
      | Some ((_, fty), off) -> (fty, off)
      | None -> Srcloc.error loc "struct %s has no member %s" sname fname)

let lookup_var fe name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match List.assoc_opt name scope with Some b -> Some b | None -> go rest)
  in
  go fe.scopes

let define_var fe loc name binding =
  match fe.scopes with
  | scope :: rest ->
      if List.mem_assoc name scope then
        Srcloc.error loc "redeclaration of %s" name
      else fe.scopes <- ((name, binding) :: scope) :: rest
  | [] -> assert false

let push_scope fe = fe.scopes <- [] :: fe.scopes

let pop_scope fe =
  match fe.scopes with _ :: rest -> fe.scopes <- rest | [] -> assert false

let scratch_addr fe =
  match fe.scratch with
  | Some r -> Ir.Instr.Reg r
  | None ->
      let r = Ir.Builder.alloca_entry fe.b ~name:"__sc_tmp" Ir.Ty.I64 in
      fe.scratch <- Some r;
      Ir.Instr.Reg r

(* Sign-normalize a 64-bit register value to the range of [ty]. *)
let normalize fe (ty : Ctype.t) v =
  match ty with
  | Ctype.Char | Ctype.Short | Ctype.Int ->
      let w = Ctype.integer_width ty in
      let t = Ir.Builder.trunc fe.b ~width:w v in
      Ir.Instr.Reg (Ir.Builder.sext fe.b ~width:w (Ir.Instr.Reg t))
  | _ -> v

(* Load an rvalue from an address, decaying arrays. *)
let load_rvalue fe loc (addr : Ir.Instr.operand) (ty : Ctype.t) : value =
  match ty with
  | Ctype.Array (elt, _) -> { v = addr; ty = Ctype.Ptr elt }
  | Ctype.Struct _ -> Srcloc.error loc "cannot use a struct as a value; take a pointer"
  | Ctype.Void -> Srcloc.error loc "void value"
  | Ctype.Ptr _ ->
      { v = Ir.Instr.Reg (Ir.Builder.load fe.b Ir.Ty.Ptr addr); ty }
  | _ ->
      let w = Ctype.integer_width ty in
      let ity = ir_ty fe.genv loc ty in
      let r = Ir.Builder.load fe.b ity addr in
      let r = if w < 8 then Ir.Builder.sext fe.b ~width:w (Ir.Instr.Reg r) else r in
      { v = Ir.Instr.Reg r; ty }

let store_value fe loc ~(addr : Ir.Instr.operand) ~(ty : Ctype.t) (v : value) =
  if Ctype.equal v.ty Ctype.Void then
    Srcloc.error loc "cannot use the result of a void expression";
  match ty with
  | Ctype.Array _ | Ctype.Struct _ ->
      Srcloc.error loc "cannot assign to an aggregate; use memcpy"
  | Ctype.Void -> Srcloc.error loc "cannot assign to void"
  | _ -> Ir.Builder.store fe.b (ir_ty fe.genv loc ty) ~value:v.v ~addr

let intern_string genv s =
  match Hashtbl.find_opt genv.strings s with
  | Some g -> g
  | None ->
      let g = Printf.sprintf "__str.%d" genv.str_count in
      genv.str_count <- genv.str_count + 1;
      Hashtbl.replace genv.strings s g;
      Ir.Prog.add_global genv.prog ~name:g
        ~ty:(Ir.Ty.Array (Ir.Ty.I8, String.length s + 1))
        ~init:(s ^ "\000") ~writable:false ();
      g

let cmp_ne0 fe (v : value) =
  Ir.Builder.icmp fe.b Ir.Instr.Ne v.v (Ir.Instr.Imm 0L)

let arith_result_ty a b =
  (* both integers: 64-bit arithmetic, nominal type long unless both
     are sub-long, in which case int (C's usual promotions, collapsed) *)
  match (a, b) with
  | Ctype.Long, _ | _, Ctype.Long -> Ctype.Long
  | _ -> Ctype.Int

let binop_ir : Ast.binop -> Ir.Instr.binop = function
  | Ast.Add -> Ir.Instr.Add
  | Ast.Sub -> Ir.Instr.Sub
  | Ast.Mul -> Ir.Instr.Mul
  | Ast.Div -> Ir.Instr.Sdiv
  | Ast.Mod -> Ir.Instr.Srem
  | Ast.Band -> Ir.Instr.And
  | Ast.Bor -> Ir.Instr.Or
  | Ast.Bxor -> Ir.Instr.Xor
  | Ast.Shl -> Ir.Instr.Shl
  | Ast.Shr -> Ir.Instr.Ashr
  | _ -> invalid_arg "binop_ir: comparison"

let icmp_ir : Ast.binop -> Ir.Instr.icmp = function
  | Ast.Eq -> Ir.Instr.Eq
  | Ast.Ne -> Ir.Instr.Ne
  | Ast.Lt -> Ir.Instr.Slt
  | Ast.Le -> Ir.Instr.Sle
  | Ast.Gt -> Ir.Instr.Sgt
  | Ast.Ge -> Ir.Instr.Sge
  | _ -> invalid_arg "icmp_ir: not a comparison"

let is_cmp = function
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true
  | _ -> false

let rec lower_expr fe (e : Ast.expr) : value =
  let loc = e.eloc in
  match e.e with
  | Ast.Int_lit v -> { v = Ir.Instr.Imm v; ty = Ctype.Int }
  | Ast.Char_lit c -> { v = Ir.Instr.Imm (Int64.of_int (Char.code c)); ty = Ctype.Char }
  | Ast.Str_lit s ->
      { v = Ir.Instr.Global (intern_string fe.genv s); ty = Ctype.Ptr Ctype.Char }
  | Ast.Var name -> (
      match lookup_var fe name with
      | Some b -> load_rvalue fe loc b.addr b.bty
      | None -> (
          match Hashtbl.find_opt fe.genv.globals name with
          | Some gty -> load_rvalue fe loc (Ir.Instr.Global name) gty
          | None ->
              if Hashtbl.mem fe.genv.funcs name then
                { v = Ir.Instr.Func_ref name; ty = Ctype.Ptr Ctype.Void }
              else Srcloc.error loc "unknown identifier %s" name))
  | Ast.Unop (op, a) -> (
      let va = lower_expr fe a in
      match op with
      | Ast.Neg ->
          {
            v = Ir.Instr.Reg (Ir.Builder.binop fe.b Ir.Instr.Sub (Ir.Instr.Imm 0L) va.v);
            ty = va.ty;
          }
      | Ast.Bnot ->
          {
            v = Ir.Instr.Reg (Ir.Builder.binop fe.b Ir.Instr.Xor va.v (Ir.Instr.Imm (-1L)));
            ty = va.ty;
          }
      | Ast.Lnot ->
          {
            v = Ir.Instr.Reg (Ir.Builder.icmp fe.b Ir.Instr.Eq va.v (Ir.Instr.Imm 0L));
            ty = Ctype.Int;
          })
  | Ast.Binop (op, a, b) -> lower_binop fe loc op a b
  | Ast.Logical (kind, a, b) -> lower_logical fe loc kind a b
  | Ast.Assign (lhs, rhs) ->
      let addr, lty = lower_lvalue fe lhs in
      let v = lower_expr fe rhs in
      store_value fe loc ~addr ~ty:lty v;
      { v = normalize fe lty v.v; ty = lty }
  | Ast.Op_assign (op, lhs, rhs) ->
      let addr, lty = lower_lvalue fe lhs in
      let old_v = load_rvalue fe loc addr lty in
      let rhs_v = lower_expr fe rhs in
      let combined = apply_binop fe loc op old_v rhs_v in
      store_value fe loc ~addr ~ty:lty combined;
      { v = normalize fe lty combined.v; ty = lty }
  | Ast.Cond (c, a, b) ->
      let slot = scratch_addr fe in
      let vc = lower_expr fe c in
      let r = cmp_ne0 fe vc in
      let l_then = Ir.Builder.fresh_label fe.b "cond.then" in
      let l_else = Ir.Builder.fresh_label fe.b "cond.else" in
      let l_join = Ir.Builder.fresh_label fe.b "cond.join" in
      Ir.Builder.cond_br fe.b (Ir.Instr.Reg r) ~if_true:l_then ~if_false:l_else;
      let _ = Ir.Builder.start_block fe.b l_then in
      let va = lower_expr fe a in
      Ir.Builder.store fe.b Ir.Ty.I64 ~value:va.v ~addr:slot;
      Ir.Builder.br fe.b l_join;
      let _ = Ir.Builder.start_block fe.b l_else in
      let vb = lower_expr fe b in
      Ir.Builder.store fe.b Ir.Ty.I64 ~value:vb.v ~addr:slot;
      Ir.Builder.br fe.b l_join;
      let _ = Ir.Builder.start_block fe.b l_join in
      let r = Ir.Builder.load fe.b Ir.Ty.I64 slot in
      let ty = if Ctype.is_pointer va.ty then va.ty else arith_result_ty va.ty vb.ty in
      { v = Ir.Instr.Reg r; ty }
  | Ast.Call (callee, args) -> lower_call fe loc callee args
  | Ast.Index (a, i) ->
      let addr, elt = lower_index_addr fe loc a i in
      load_rvalue fe loc addr elt
  | Ast.Member _ | Ast.Arrow _ ->
      let addr, fty = lower_lvalue fe e in
      load_rvalue fe loc addr fty
  | Ast.Deref a -> (
      let va = lower_expr fe a in
      match va.ty with
      | Ctype.Ptr pointee -> load_rvalue fe loc va.v pointee
      | _ -> Srcloc.error loc "dereference of non-pointer (%s)" (Ctype.to_string va.ty))
  | Ast.Addr_of a -> (
      match a.e with
      | Ast.Var name when lookup_var fe name = None
                          && not (Hashtbl.mem fe.genv.globals name)
                          && Hashtbl.mem fe.genv.funcs name ->
          (* &function *)
          { v = Ir.Instr.Func_ref name; ty = Ctype.Ptr Ctype.Void }
      | _ ->
          let addr, lty = lower_lvalue fe a in
          { v = addr; ty = Ctype.Ptr lty })
  | Ast.Sizeof_type t ->
      { v = Ir.Instr.Imm (Int64.of_int (sizeof fe.genv loc t)); ty = Ctype.Long }
  | Ast.Sizeof_expr inner ->
      let t = type_of_expr fe inner in
      { v = Ir.Instr.Imm (Int64.of_int (sizeof fe.genv loc t)); ty = Ctype.Long }
  | Ast.Cast (t, a) -> (
      let va = lower_expr fe a in
      match t with
      | Ctype.Void -> { v = Ir.Instr.Imm 0L; ty = Ctype.Void }
      | Ctype.Ptr _ -> { v = va.v; ty = t }
      | _ when Ctype.is_integer t -> { v = normalize fe t va.v; ty = t }
      | _ -> Srcloc.error loc "unsupported cast to %s" (Ctype.to_string t))
  | Ast.Incdec (timing, dir, lhs) ->
      let addr, lty = lower_lvalue fe lhs in
      let old_v = load_rvalue fe loc addr lty in
      let one = { v = Ir.Instr.Imm 1L; ty = Ctype.Int } in
      let op = match dir with `Inc -> Ast.Add | `Dec -> Ast.Sub in
      let new_v = apply_binop fe loc op old_v one in
      store_value fe loc ~addr ~ty:lty new_v;
      (match timing with
      | `Pre -> { v = normalize fe lty new_v.v; ty = lty }
      | `Post -> old_v)

(* Static type of an expression without emitting code (sizeof). *)
and type_of_expr fe (e : Ast.expr) : Ctype.t =
  let loc = e.eloc in
  match e.e with
  | Ast.Int_lit _ -> Ctype.Int
  | Ast.Char_lit _ -> Ctype.Char
  | Ast.Str_lit s -> Ctype.Array (Ctype.Char, String.length s + 1)
  | Ast.Var name -> (
      match lookup_var fe name with
      | Some b -> b.bty
      | None -> (
          match Hashtbl.find_opt fe.genv.globals name with
          | Some t -> t
          | None -> Srcloc.error loc "unknown identifier %s" name))
  | Ast.Deref a -> (
      match Ctype.decay (type_of_expr fe a) with
      | Ctype.Ptr p -> p
      | t -> Srcloc.error loc "dereference of non-pointer (%s)" (Ctype.to_string t))
  | Ast.Index (a, _) -> (
      match Ctype.decay (type_of_expr fe a) with
      | Ctype.Ptr p -> p
      | t -> Srcloc.error loc "indexing non-array (%s)" (Ctype.to_string t))
  | Ast.Member (a, f) -> (
      match type_of_expr fe a with
      | Ctype.Struct s -> fst (field_info fe.genv loc s f)
      | t -> Srcloc.error loc "member access on non-struct (%s)" (Ctype.to_string t))
  | Ast.Arrow (a, f) -> (
      match Ctype.decay (type_of_expr fe a) with
      | Ctype.Ptr (Ctype.Struct s) -> fst (field_info fe.genv loc s f)
      | t -> Srcloc.error loc "-> on non-struct-pointer (%s)" (Ctype.to_string t))
  | Ast.Addr_of a -> Ctype.Ptr (type_of_expr fe a)
  | Ast.Cast (t, _) -> t
  | Ast.Assign (lhs, _) | Ast.Op_assign (_, lhs, _) -> type_of_expr fe lhs
  | Ast.Incdec (_, _, lhs) -> type_of_expr fe lhs
  | Ast.Sizeof_type _ | Ast.Sizeof_expr _ -> Ctype.Long
  | Ast.Unop (_, a) -> type_of_expr fe a
  | Ast.Binop (op, a, b) ->
      if is_cmp op then Ctype.Int
      else
        let ta = Ctype.decay (type_of_expr fe a) in
        let tb = Ctype.decay (type_of_expr fe b) in
        if Ctype.is_pointer ta then ta
        else if Ctype.is_pointer tb then tb
        else arith_result_ty ta tb
  | Ast.Logical _ -> Ctype.Int
  | Ast.Cond (_, a, _) -> type_of_expr fe a
  | Ast.Call (callee, _) -> (
      match callee.e with
      | Ast.Var name -> (
          match Hashtbl.find_opt fe.genv.funcs name with
          | Some (_, ret) -> ret
          | None -> Ctype.Long)
      | _ -> Ctype.Long)

and apply_binop fe loc op (a : value) (b : value) : value =
  if is_cmp op then
    { v = Ir.Instr.Reg (Ir.Builder.icmp fe.b (icmp_ir op) a.v b.v); ty = Ctype.Int }
  else
    match (op, a.ty, b.ty) with
    | Ast.Add, Ctype.Ptr p, bt when Ctype.is_integer bt ->
        let scaled =
          Ir.Builder.binop fe.b Ir.Instr.Mul b.v
            (Ir.Instr.Imm (Int64.of_int (sizeof fe.genv loc p)))
        in
        {
          v = Ir.Instr.Reg (Ir.Builder.binop fe.b Ir.Instr.Add a.v (Ir.Instr.Reg scaled));
          ty = a.ty;
        }
    | Ast.Add, at, Ctype.Ptr _ when Ctype.is_integer at -> apply_binop fe loc op b a
    | Ast.Sub, Ctype.Ptr p, bt when Ctype.is_integer bt ->
        let scaled =
          Ir.Builder.binop fe.b Ir.Instr.Mul b.v
            (Ir.Instr.Imm (Int64.of_int (sizeof fe.genv loc p)))
        in
        {
          v = Ir.Instr.Reg (Ir.Builder.binop fe.b Ir.Instr.Sub a.v (Ir.Instr.Reg scaled));
          ty = a.ty;
        }
    | Ast.Sub, Ctype.Ptr p, Ctype.Ptr _ ->
        let diff = Ir.Builder.binop fe.b Ir.Instr.Sub a.v b.v in
        {
          v =
            Ir.Instr.Reg
              (Ir.Builder.binop fe.b Ir.Instr.Sdiv (Ir.Instr.Reg diff)
                 (Ir.Instr.Imm (Int64.of_int (max 1 (sizeof fe.genv loc p)))));
          ty = Ctype.Long;
        }
    | _, at, bt when Ctype.is_integer at && Ctype.is_integer bt ->
        {
          v = Ir.Instr.Reg (Ir.Builder.binop fe.b (binop_ir op) a.v b.v);
          ty = arith_result_ty at bt;
        }
    | _ ->
        Srcloc.error loc "invalid operands (%s and %s)" (Ctype.to_string a.ty)
          (Ctype.to_string b.ty)

and lower_binop fe loc op a b =
  let va = lower_expr fe a in
  let vb = lower_expr fe b in
  apply_binop fe loc op va vb

and lower_logical fe _loc kind a b =
  let slot = scratch_addr fe in
  let l_rhs = Ir.Builder.fresh_label fe.b "sc.rhs" in
  let l_short = Ir.Builder.fresh_label fe.b "sc.short" in
  let l_join = Ir.Builder.fresh_label fe.b "sc.join" in
  let va = lower_expr fe a in
  let ra = cmp_ne0 fe va in
  (match kind with
  | `And ->
      Ir.Builder.cond_br fe.b (Ir.Instr.Reg ra) ~if_true:l_rhs ~if_false:l_short
  | `Or ->
      Ir.Builder.cond_br fe.b (Ir.Instr.Reg ra) ~if_true:l_short ~if_false:l_rhs);
  let _ = Ir.Builder.start_block fe.b l_rhs in
  let vb = lower_expr fe b in
  let rb = cmp_ne0 fe vb in
  Ir.Builder.store fe.b Ir.Ty.I64 ~value:(Ir.Instr.Reg rb) ~addr:slot;
  Ir.Builder.br fe.b l_join;
  let _ = Ir.Builder.start_block fe.b l_short in
  let short_val = match kind with `And -> 0L | `Or -> 1L in
  Ir.Builder.store fe.b Ir.Ty.I64 ~value:(Ir.Instr.Imm short_val) ~addr:slot;
  Ir.Builder.br fe.b l_join;
  let _ = Ir.Builder.start_block fe.b l_join in
  { v = Ir.Instr.Reg (Ir.Builder.load fe.b Ir.Ty.I64 slot); ty = Ctype.Int }

and lower_index_addr fe loc a i =
  let va = lower_expr fe a in
  let vi = lower_expr fe i in
  match va.ty with
  | Ctype.Ptr elt ->
      if not (Ctype.is_integer vi.ty) then
        Srcloc.error loc "array index must be an integer";
      let scale = sizeof fe.genv loc elt in
      let r =
        Ir.Builder.gep_idx fe.b va.v ~offset:0 ~index:vi.v ~scale
      in
      (Ir.Instr.Reg r, elt)
  | t -> Srcloc.error loc "indexing non-array (%s)" (Ctype.to_string t)

and lower_lvalue fe (e : Ast.expr) : Ir.Instr.operand * Ctype.t =
  let loc = e.eloc in
  match e.e with
  | Ast.Var name -> (
      match lookup_var fe name with
      | Some b -> (b.addr, b.bty)
      | None -> (
          match Hashtbl.find_opt fe.genv.globals name with
          | Some gty -> (Ir.Instr.Global name, gty)
          | None -> Srcloc.error loc "unknown identifier %s" name))
  | Ast.Deref a -> (
      let va = lower_expr fe a in
      match va.ty with
      | Ctype.Ptr pointee -> (va.v, pointee)
      | t -> Srcloc.error loc "dereference of non-pointer (%s)" (Ctype.to_string t))
  | Ast.Index (a, i) -> lower_index_addr fe loc a i
  | Ast.Member (a, f) -> (
      let addr, aty = lower_lvalue fe a in
      match aty with
      | Ctype.Struct s ->
          let fty, off = field_info fe.genv loc s f in
          (Ir.Instr.Reg (Ir.Builder.gep fe.b addr ~offset:off), fty)
      | t -> Srcloc.error loc "member access on non-struct (%s)" (Ctype.to_string t))
  | Ast.Arrow (a, f) -> (
      let va = lower_expr fe a in
      match va.ty with
      | Ctype.Ptr (Ctype.Struct s) ->
          let fty, off = field_info fe.genv loc s f in
          (Ir.Instr.Reg (Ir.Builder.gep fe.b va.v ~offset:off), fty)
      | t -> Srcloc.error loc "-> on non-struct-pointer (%s)" (Ctype.to_string t))
  | _ -> Srcloc.error loc "expression is not assignable"

and lower_call fe loc callee args =
  let lowered_args = List.map (lower_expr fe) args in
  let arg_ops = List.map (fun v -> v.v) lowered_args in
  match callee.Ast.e with
  | Ast.Var name when lookup_var fe name = None && Hashtbl.mem fe.genv.funcs name ->
      let params, ret = Hashtbl.find fe.genv.funcs name in
      (match params with
      | Some ps when List.length ps <> List.length args ->
          Srcloc.error loc "%s expects %d argument(s), got %d" name
            (List.length ps) (List.length args)
      | _ -> ());
      let want_result = not (Ctype.equal ret Ctype.Void) in
      let dst = Ir.Builder.call fe.b ~result:want_result name arg_ops in
      (match dst with
      | Some d -> { v = Ir.Instr.Reg d; ty = ret }
      | None -> { v = Ir.Instr.Imm 0L; ty = Ctype.Void })
  | _ ->
      (* call through a pointer: unchecked signature, returns long *)
      let vf = lower_expr fe callee in
      let dst = Ir.Builder.call_ind fe.b ~result:true vf.v arg_ops in
      { v = Ir.Instr.Reg (Option.get dst); ty = Ctype.Long }

let rec lower_stmt fe (st : Ast.stmt) =
  let loc = st.sloc in
  match st.s with
  | Ast.Expr_stmt e -> ignore (lower_expr fe e)
  | Ast.Block body ->
      push_scope fe;
      lower_stmts fe body;
      pop_scope fe
  | Ast.Seq body -> lower_stmts fe body
  | Ast.Decl { dname; dty; vla_len = None; init } ->
      let ity = ir_ty fe.genv loc dty in
      let r = Ir.Builder.alloca_entry fe.b ~name:dname ity in
      define_var fe loc dname { addr = Ir.Instr.Reg r; bty = dty };
      (match init with
      | Some e ->
          let v = lower_expr fe e in
          (match dty with
          | Ctype.Array (Ctype.Char, n) -> (
              (* char buf[N] = "literal"; *)
              match e.Ast.e with
              | Ast.Str_lit s when String.length s < n ->
                  ignore
                    (Ir.Builder.call fe.b "strcpy"
                       [ Ir.Instr.Reg r; v.v ])
              | _ ->
                  Srcloc.error loc
                    "array initializer must be a short-enough string literal")
          | Ctype.Array _ | Ctype.Struct _ ->
              Srcloc.error loc "aggregate initializers are not supported"
          | _ -> store_value fe loc ~addr:(Ir.Instr.Reg r) ~ty:dty v)
      | None -> ())
  | Ast.Decl { dname; dty; vla_len = Some len; init } ->
      (match init with
      | Some _ -> Srcloc.error loc "VLAs cannot have initializers"
      | None -> ());
      let elem_ir = ir_ty fe.genv loc dty in
      let vlen = lower_expr fe len in
      let r = Ir.Builder.alloca_vla fe.b ~name:dname elem_ir ~count:vlen.v in
      define_var fe loc dname { addr = Ir.Instr.Reg r; bty = Ctype.Array (dty, 0) }
  | Ast.If (c, then_, else_) ->
      let vc = lower_expr fe c in
      let r = cmp_ne0 fe vc in
      let l_then = Ir.Builder.fresh_label fe.b "if.then" in
      let l_else = Ir.Builder.fresh_label fe.b "if.else" in
      let l_join = Ir.Builder.fresh_label fe.b "if.join" in
      let has_else = else_ <> [] in
      Ir.Builder.cond_br fe.b (Ir.Instr.Reg r) ~if_true:l_then
        ~if_false:(if has_else then l_else else l_join);
      let _ = Ir.Builder.start_block fe.b l_then in
      push_scope fe;
      lower_stmts fe then_;
      pop_scope fe;
      if not (Ir.Builder.terminated fe.b) then Ir.Builder.br fe.b l_join;
      if has_else then begin
        let _ = Ir.Builder.start_block fe.b l_else in
        push_scope fe;
        lower_stmts fe else_;
        pop_scope fe;
        if not (Ir.Builder.terminated fe.b) then Ir.Builder.br fe.b l_join
      end;
      let _ = Ir.Builder.start_block fe.b l_join in
      ()
  | Ast.While (c, body) ->
      let l_head = Ir.Builder.fresh_label fe.b "while.head" in
      let l_body = Ir.Builder.fresh_label fe.b "while.body" in
      let l_exit = Ir.Builder.fresh_label fe.b "while.exit" in
      Ir.Builder.br fe.b l_head;
      let _ = Ir.Builder.start_block fe.b l_head in
      let vc = lower_expr fe c in
      let r = cmp_ne0 fe vc in
      Ir.Builder.cond_br fe.b (Ir.Instr.Reg r) ~if_true:l_body ~if_false:l_exit;
      let _ = Ir.Builder.start_block fe.b l_body in
      fe.loops <- (l_exit, Some l_head) :: fe.loops;
      push_scope fe;
      lower_stmts fe body;
      pop_scope fe;
      fe.loops <- List.tl fe.loops;
      if not (Ir.Builder.terminated fe.b) then Ir.Builder.br fe.b l_head;
      let _ = Ir.Builder.start_block fe.b l_exit in
      ()
  | Ast.Do_while (body, c) ->
      let l_body = Ir.Builder.fresh_label fe.b "do.body" in
      let l_cond = Ir.Builder.fresh_label fe.b "do.cond" in
      let l_exit = Ir.Builder.fresh_label fe.b "do.exit" in
      Ir.Builder.br fe.b l_body;
      let _ = Ir.Builder.start_block fe.b l_body in
      fe.loops <- (l_exit, Some l_cond) :: fe.loops;
      push_scope fe;
      lower_stmts fe body;
      pop_scope fe;
      fe.loops <- List.tl fe.loops;
      if not (Ir.Builder.terminated fe.b) then Ir.Builder.br fe.b l_cond;
      let _ = Ir.Builder.start_block fe.b l_cond in
      let vc = lower_expr fe c in
      let r = cmp_ne0 fe vc in
      Ir.Builder.cond_br fe.b (Ir.Instr.Reg r) ~if_true:l_body ~if_false:l_exit;
      let _ = Ir.Builder.start_block fe.b l_exit in
      ()
  | Ast.For (init, cond, step, body) ->
      push_scope fe;
      Option.iter (lower_stmt fe) init;
      let l_head = Ir.Builder.fresh_label fe.b "for.head" in
      let l_body = Ir.Builder.fresh_label fe.b "for.body" in
      let l_step = Ir.Builder.fresh_label fe.b "for.step" in
      let l_exit = Ir.Builder.fresh_label fe.b "for.exit" in
      Ir.Builder.br fe.b l_head;
      let _ = Ir.Builder.start_block fe.b l_head in
      (match cond with
      | Some c ->
          let vc = lower_expr fe c in
          let r = cmp_ne0 fe vc in
          Ir.Builder.cond_br fe.b (Ir.Instr.Reg r) ~if_true:l_body ~if_false:l_exit
      | None -> Ir.Builder.br fe.b l_body);
      let _ = Ir.Builder.start_block fe.b l_body in
      fe.loops <- (l_exit, Some l_step) :: fe.loops;
      push_scope fe;
      lower_stmts fe body;
      pop_scope fe;
      fe.loops <- List.tl fe.loops;
      if not (Ir.Builder.terminated fe.b) then Ir.Builder.br fe.b l_step;
      let _ = Ir.Builder.start_block fe.b l_step in
      Option.iter (fun e -> ignore (lower_expr fe e)) step;
      Ir.Builder.br fe.b l_head;
      let _ = Ir.Builder.start_block fe.b l_exit in
      pop_scope fe
  | Ast.Switch (scrut, cases, default) ->
      let v = lower_expr fe scrut in
      let exit_l = Ir.Builder.fresh_label fe.b "switch.exit" in
      let case_labels =
        List.map (fun _ -> Ir.Builder.fresh_label fe.b "switch.case") cases
      in
      let default_l =
        Option.map (fun _ -> Ir.Builder.fresh_label fe.b "switch.default") default
      in
      (* linear dispatch: one equality test per case value *)
      List.iter2
        (fun lbl (c : Ast.switch_case) ->
          List.iter
            (fun value ->
              let r = Ir.Builder.icmp fe.b Ir.Instr.Eq v.v (Ir.Instr.Imm value) in
              let next_test = Ir.Builder.fresh_label fe.b "switch.test" in
              Ir.Builder.cond_br fe.b (Ir.Instr.Reg r) ~if_true:lbl
                ~if_false:next_test;
              ignore (Ir.Builder.start_block fe.b next_test))
            c.case_values)
        case_labels cases;
      Ir.Builder.br fe.b (Option.value ~default:exit_l default_l);
      (* bodies in source order; an unterminated body falls through *)
      let inherited_continue =
        match fe.loops with (_, c) :: _ -> c | [] -> None
      in
      fe.loops <- (exit_l, inherited_continue) :: fe.loops;
      let n = List.length cases in
      List.iteri
        (fun i (lbl, (c : Ast.switch_case)) ->
          ignore (Ir.Builder.start_block fe.b lbl);
          push_scope fe;
          lower_stmts fe c.case_body;
          pop_scope fe;
          if not (Ir.Builder.terminated fe.b) then
            Ir.Builder.br fe.b
              (if i + 1 < n then List.nth case_labels (i + 1)
               else Option.value ~default:exit_l default_l))
        (List.combine case_labels cases);
      (match (default, default_l) with
      | Some body, Some lbl ->
          ignore (Ir.Builder.start_block fe.b lbl);
          push_scope fe;
          lower_stmts fe body;
          pop_scope fe;
          if not (Ir.Builder.terminated fe.b) then Ir.Builder.br fe.b exit_l
      | _ -> ());
      fe.loops <- List.tl fe.loops;
      ignore (Ir.Builder.start_block fe.b exit_l)
  | Ast.Return v -> (
      match (v, fe.fret) with
      | None, Ctype.Void -> Ir.Builder.ret fe.b None
      | Some _, Ctype.Void ->
          Srcloc.error loc "returning a value from a void function"
      | None, _ -> Srcloc.error loc "missing return value"
      | Some e, ret_ty ->
          let rv = lower_expr fe e in
          Ir.Builder.ret fe.b (Some (normalize fe ret_ty rv.v)))
  | Ast.Break -> (
      match fe.loops with
      | (l_exit, _) :: _ -> Ir.Builder.br fe.b l_exit
      | [] -> Srcloc.error loc "break outside a loop")
  | Ast.Continue -> (
      match fe.loops with
      | (_, Some l_cont) :: _ -> Ir.Builder.br fe.b l_cont
      | (_, None) :: _ | [] -> Srcloc.error loc "continue outside a loop")

and lower_stmts fe stmts =
  List.iter
    (fun st -> if not (Ir.Builder.terminated fe.b) then lower_stmt fe st)
    stmts

let ginit_bytes loc (gty : Ctype.t) = function
  | None -> ""
  | Some (Ast.Gi_int v) ->
      let w =
        match gty with
        | t when Ctype.is_integer t -> Ctype.integer_width t
        | Ctype.Ptr _ -> 8
        | _ -> Srcloc.error loc "scalar initializer for aggregate global"
      in
      String.init w (fun i ->
          Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  | Some (Ast.Gi_string s) -> (
      match gty with
      | Ctype.Array (Ctype.Char, n) when String.length s < n -> s ^ "\000"
      | Ctype.Ptr Ctype.Char ->
          Srcloc.error loc
            "char* globals initialized with literals are not supported; use a \
             char array"
      | _ -> Srcloc.error loc "string initializer needs a large-enough char array")

let lower_func genv (f : Ast.func) =
  let params_with_regs = List.mapi (fun i (name, ty) -> (i, name, ty)) f.params in
  let func =
    Ir.Func.create ~name:f.fname
      ~params:
        (List.map
           (fun (i, _, ty) -> (i, ir_ty genv f.floc (Ctype.decay ty)))
           params_with_regs)
      ~returns:
        (match f.ret with
        | Ctype.Void -> None
        | t -> Some (ir_ty genv f.floc t))
  in
  let b = Ir.Builder.create func in
  let fe =
    {
      genv;
      b;
      fret = f.ret;
      scopes = [ [] ];
      loops = [];
      scratch = None;
    }
  in
  (* Parameters become addressable entry allocas, stored on entry —
     the register spills the paper notes are part of the frame. *)
  List.iter
    (fun (i, name, ty) ->
      let ty = Ctype.decay ty in
      let r = Ir.Builder.alloca_entry fe.b ~name (ir_ty genv f.floc ty) in
      Ir.Builder.store fe.b (ir_ty genv f.floc ty) ~value:(Ir.Instr.Reg i)
        ~addr:(Ir.Instr.Reg r);
      define_var fe f.floc name { addr = Ir.Instr.Reg r; bty = ty })
    params_with_regs;
  lower_stmts fe f.body;
  if not (Ir.Builder.terminated fe.b) then begin
    match f.ret with
    | Ctype.Void -> Ir.Builder.ret fe.b None
    | _ -> Ir.Builder.ret fe.b (Some (Ir.Instr.Imm 0L))
  end;
  Ir.Prog.add_func genv.prog func

let lower (program : Ast.program) : Ir.Prog.t =
  let genv =
    {
      prog = Ir.Prog.create ();
      structs = Hashtbl.create 8;
      funcs = Hashtbl.create 16;
      globals = Hashtbl.create 16;
      strings = Hashtbl.create 16;
      str_count = 0;
    }
  in
  (* Builtins are implicitly declared externs. *)
  List.iter
    (fun (name, params, ret) ->
      Hashtbl.replace genv.funcs name (params, ret);
      Ir.Prog.add_extern genv.prog name)
    builtins;
  (* Pass 1: collect structs, signatures, globals.  A name defined
     twice is a diagnostic here, not an [Invalid_argument] from
     [Ir.Prog] later. *)
  let defined = Hashtbl.create 16 in
  List.iter
    (fun top ->
      match top with
      | Ast.Struct_def { sname; fields } -> Hashtbl.replace genv.structs sname fields
      | Ast.Extern_decl { ename; eparams; eret } ->
          Hashtbl.replace genv.funcs ename (Some eparams, eret);
          Ir.Prog.add_extern genv.prog ename
      | Ast.Func_def f ->
          if Hashtbl.mem defined f.fname then
            Srcloc.error f.floc "redefinition of function %s" f.fname;
          Hashtbl.add defined f.fname ();
          Hashtbl.replace genv.funcs f.fname
            (Some (List.map snd f.params), f.ret)
      | Ast.Global { gname; gty; _ } ->
          if Hashtbl.mem genv.globals gname then
            Srcloc.error Srcloc.dummy "redefinition of global %s" gname;
          Hashtbl.replace genv.globals gname gty)
    program;
  (* Pass 2: emit globals then function bodies. *)
  List.iter
    (fun top ->
      match top with
      | Ast.Global { gname; gty; ginit; gconst } ->
          Ir.Prog.add_global genv.prog ~name:gname
            ~ty:(ir_ty genv Srcloc.dummy gty)
            ~init:(ginit_bytes Srcloc.dummy gty ginit)
            ~writable:(not gconst) ()
      | _ -> ())
    program;
  List.iter
    (function Ast.Func_def f -> lower_func genv f | _ -> ())
    program;
  (match Ir.Verifier.verify genv.prog with
  | [] -> ()
  | errors ->
      let report =
        String.concat "\n" (List.map (Format.asprintf "%a" Ir.Verifier.pp_error) errors)
      in
      failwith ("Minic.Lower produced invalid IR (bug):\n" ^ report));
  genv.prog

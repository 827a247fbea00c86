(* The generator works over a tiny typed context: every variable in
   scope is a [long] scalar or a [long] array of known size; values are
   combined with total operators only.

   Each expression and statement is first drawn into a small tree, then
   printed into the program's one buffer.  The draw order is part of
   the output contract (store keys, goldens and every seeded corpus
   depend on it), and it is not the print order: it is the order in
   which the first, [Printf.sprintf]-based generator evaluated its
   arguments, right to left.  So a binary operator draws its right
   operand first; [?:] draws its else-arm, then-arm, right comparand,
   comparison and left comparand, in that order; and the [if] statement
   draws its branch expression, branch operator, right comparand,
   comparison and left comparand. *)

type ctx = {
  rng : Sutil.Simrng.t;
  scalars : string list;  (** in-scope long scalars *)
  arrays : (string * int) list;  (** in-scope long arrays, pow2 sizes *)
  funcs : (string * int) list;  (** defined helpers: name, arity *)
}

(* Every expression a statement or [return] draws is this deep. *)
let depth = 2

let pick rng l = List.nth l (Sutil.Simrng.int rng ~bound:(List.length l))
let take n l = List.filteri (fun i _ -> i < n) l

type binop = Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr

let binop_of_draw = function
  | 0 -> Add
  | 1 -> Sub
  | 2 -> Mul
  | 3 -> Div
  | 4 -> Mod
  | 5 -> And
  | 6 -> Or
  | 7 -> Xor
  | 8 -> Shl
  | _ -> Shr

type expr =
  | Lit of int
  | Var of string
  | Elem of string * expr * int  (** [name[index & mask]] *)
  | Bin of binop * expr * expr
  | Cond of expr * string * expr * expr * expr
      (** [(a cmp b ? then : else)] *)
  | Call of string * expr list

type stmt =
  | Assign of string * string * expr  (** [v op e;] *)
  | Store of string * expr * int * expr  (** [name[index & mask] = e;] *)
  | If of expr * string * expr * string * string * expr
      (** [if (a cmp b) { v op e; } else { v -= 1; }] *)
  | Loop of string * int * expr  (** [bound] rounds of [v += e;] *)
  | Skip

(* ------------------------------------------------------------------ *)
(* Drawing *)

(* Expressions: total by construction.  Division and modulo get a
   "| 1"-forced divisor; shifts get masked counts. *)
let rec draw_expr c depth =
  if depth <= 0 then draw_leaf c
  else
    let d = depth - 1 in
    match Sutil.Simrng.int c.rng ~bound:12 with
    | k when k < 10 ->
        let b = draw_expr c d in
        let a = draw_expr c d in
        Bin (binop_of_draw k, a, b)
    | 10 ->
        let e_else = draw_expr c d in
        let e_then = draw_expr c d in
        let rhs = draw_expr c d in
        let cmp = pick c.rng [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
        let lhs = draw_expr c d in
        Cond (lhs, cmp, rhs, e_then, e_else)
    | _ when c.funcs <> [] ->
        let name, arity = pick c.rng c.funcs in
        Call (name, draw_args c d arity)
    | _ -> draw_leaf c

(* Arguments are drawn left to right. *)
and draw_args c d n =
  if n = 0 then []
  else
    let e = draw_expr c d in
    e :: draw_args c d (n - 1)

and draw_leaf c =
  match Sutil.Simrng.int c.rng ~bound:4 with
  | 0 -> Lit (Sutil.Simrng.int c.rng ~bound:2000 - 1000)
  | 1 | 2 when c.scalars <> [] -> Var (pick c.rng c.scalars)
  | _ when c.arrays <> [] ->
      let name, size = pick c.rng c.arrays in
      Elem (name, draw_index c, size - 1)
  | _ -> Lit (Sutil.Simrng.int c.rng ~bound:100)

and draw_index c =
  if c.scalars = [] then Lit (Sutil.Simrng.int c.rng ~bound:64)
  else Var (pick c.rng c.scalars)

let draw_stmt c =
  match Sutil.Simrng.int c.rng ~bound:6 with
  | 0 | 1 when c.scalars <> [] ->
      let e = draw_expr c depth in
      let op = pick c.rng [ "="; "+="; "-="; "^=" ] in
      Assign (pick c.rng c.scalars, op, e)
  | 2 when c.arrays <> [] ->
      let name, size = pick c.rng c.arrays in
      let e = draw_expr c depth in
      Store (name, draw_index c, size - 1, e)
  | 3 when c.scalars <> [] ->
      let v = pick c.rng c.scalars in
      let e = draw_expr c depth in
      let op = pick c.rng [ "+="; "^=" ] in
      let rhs = draw_expr c depth in
      let cmp = pick c.rng [ "<"; ">"; "==" ] in
      let lhs = draw_expr c depth in
      If (lhs, cmp, rhs, v, op, e)
  | _ when c.scalars <> [] ->
      (* constant-bounded loop over a fresh counter *)
      let v = pick c.rng c.scalars in
      let bound = 1 + Sutil.Simrng.int c.rng ~bound:7 in
      Loop (v, bound, draw_expr c depth)
  | _ -> Skip

(* ------------------------------------------------------------------ *)
(* Printing *)

let add = Buffer.add_string

(* [n <= 0], most significant digit first *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let binop_text = function
  | Add -> (" + ", ")")
  | Sub -> (" - ", ")")
  | Mul -> (" * ", ")")
  | Div -> (" / ((", " & 7) + 1))")
  | Mod -> (" % ((", " & 15) + 1))")
  | And -> (" & ", ")")
  | Or -> (" | ", ")")
  | Xor -> (" ^ ", ")")
  | Shl -> (" << (", " & 7))")
  | Shr -> (" >> (", " & 15))")

let rec print_expr buf = function
  | Lit n -> add_int buf n
  | Var v -> add buf v
  | Elem (name, index, mask) -> print_elem buf name index mask
  | Bin (op, a, b) ->
      let mid, tail = binop_text op in
      Buffer.add_char buf '(';
      print_expr buf a;
      add buf mid;
      print_expr buf b;
      add buf tail
  | Cond (lhs, cmp, rhs, e_then, e_else) ->
      Buffer.add_char buf '(';
      print_expr buf lhs;
      Buffer.add_char buf ' ';
      add buf cmp;
      Buffer.add_char buf ' ';
      print_expr buf rhs;
      add buf " ? ";
      print_expr buf e_then;
      add buf " : ";
      print_expr buf e_else;
      Buffer.add_char buf ')'
  | Call (name, args) ->
      add buf name;
      Buffer.add_char buf '(';
      List.iteri
        (fun i e ->
          if i > 0 then add buf ", ";
          print_expr buf e)
        args;
      Buffer.add_char buf ')'

and print_elem buf name index mask =
  add buf name;
  Buffer.add_char buf '[';
  print_expr buf index;
  add buf " & ";
  add_int buf mask;
  Buffer.add_char buf ']'

let print_stmt buf ~indent s =
  for _ = 1 to indent do
    Buffer.add_char buf ' '
  done;
  match s with
  | Assign (v, op, e) ->
      add buf v;
      Buffer.add_char buf ' ';
      add buf op;
      Buffer.add_char buf ' ';
      print_expr buf e;
      Buffer.add_char buf ';'
  | Store (name, index, mask, e) ->
      print_elem buf name index mask;
      add buf " = ";
      print_expr buf e;
      Buffer.add_char buf ';'
  | If (lhs, cmp, rhs, v, op, e) ->
      add buf "if (";
      print_expr buf lhs;
      Buffer.add_char buf ' ';
      add buf cmp;
      Buffer.add_char buf ' ';
      print_expr buf rhs;
      add buf ") { ";
      add buf v;
      Buffer.add_char buf ' ';
      add buf op;
      Buffer.add_char buf ' ';
      print_expr buf e;
      add buf "; } else { ";
      add buf v;
      add buf " -= 1; }"
  | Loop (v, bound, e) ->
      add buf "for (int it";
      add_int buf indent;
      add buf " = 0; it";
      add_int buf indent;
      add buf " < ";
      add_int buf bound;
      add buf "; it";
      add_int buf indent;
      add buf "++) { ";
      add buf v;
      add buf " += ";
      print_expr buf e;
      add buf "; }"
  | Skip -> Buffer.add_char buf ';'

(* ------------------------------------------------------------------ *)
(* Programs *)

(* One name for each value the draws below allow: up to 3 globals,
   3 helpers, 2 parameters and 3 locals. *)
let global_names = [ "g0"; "g1"; "g2" ]
let helper_names = [| "h0"; "h1"; "h2" |]
let param_names = [ "p0"; "p1" ]
let local_names = [ "l0"; "l1"; "l2" ]

let gen_helper buf rng ~name ~arity ~funcs =
  let params = take arity param_names in
  let n_locals = 1 + Sutil.Simrng.int rng ~bound:3 in
  let locals = take n_locals local_names in
  let arr_size = 1 lsl (2 + Sutil.Simrng.int rng ~bound:3) in
  let c =
    { rng; scalars = params @ locals; arrays = [ ("buf", arr_size) ]; funcs }
  in
  add buf "long ";
  add buf name;
  Buffer.add_char buf '(';
  List.iteri
    (fun i p ->
      if i > 0 then add buf ", ";
      add buf "long ";
      add buf p)
    params;
  add buf ") {\n  long buf[";
  add_int buf arr_size;
  add buf "];\n";
  List.iteri
    (fun i l ->
      add buf "  long ";
      add buf l;
      add buf " = ";
      add_int buf ((i * 37) + 5);
      add buf ";\n")
    locals;
  add buf "  for (int z = 0; z < ";
  add_int buf arr_size;
  add buf "; z++) buf[z] = z * 3;\n";
  let n_stmts = 2 + Sutil.Simrng.int rng ~bound:5 in
  for _ = 1 to n_stmts do
    print_stmt buf ~indent:2 (draw_stmt c);
    Buffer.add_char buf '\n'
  done;
  add buf "  return ";
  print_expr buf (draw_expr c depth);
  add buf ";\n}\n\n"

let gen ~leaky ~seed =
  let rng = Sutil.Simrng.create ~seed in
  let buf = Buffer.create 1024 in
  (* globals *)
  let n_globals = 1 + Sutil.Simrng.int rng ~bound:3 in
  let globals = take n_globals global_names in
  List.iteri
    (fun i g ->
      add buf "long ";
      add buf g;
      add buf " = ";
      add_int buf ((i * 11) + 1);
      add buf ";\n")
    globals;
  Buffer.add_char buf '\n';
  (* helpers, each allowed to call the previous ones *)
  let n_funcs = 1 + Sutil.Simrng.int rng ~bound:3 in
  let funcs = ref [] in
  for i = 0 to n_funcs - 1 do
    let name = helper_names.(i) in
    let arity = 1 + Sutil.Simrng.int rng ~bound:2 in
    gen_helper buf rng ~name ~arity ~funcs:!funcs;
    funcs := (name, arity) :: !funcs
  done;
  (* main: accumulate helper results and globals into a checksum.  Like
     every helper, main gets at least one array local and one scalar
     local — the frame-permutation passes need both kinds in every
     function to have anything to separate. *)
  let c =
    {
      rng;
      scalars = "acc" :: globals;
      arrays = [ ("mbuf", 8) ];
      funcs = !funcs;
    }
  in
  add buf "int main() {\n  long acc = 0;\n  long mbuf[8];\n";
  add buf "  for (int z = 0; z < 8; z++) mbuf[z] = z * 7;\n";
  let rounds = 2 + Sutil.Simrng.int rng ~bound:4 in
  for r = 1 to rounds do
    add buf "  acc = acc * 31 + ";
    print_expr buf (draw_expr c depth);
    add buf ";\n";
    if r mod 2 = 0 && globals <> [] then begin
      add buf "  ";
      add buf (pick rng globals);
      add buf " += acc & 1023;\n"
    end
  done;
  add buf "  acc = acc * 31 + mbuf[acc & 7];\n";
  (* Leak-shaped tail (ground-truth positives for the leak analyzer and
     E19): either print a local's address outright, or branch on the
     relative order of two locals — a one-bit comparison oracle.  The
     shape draw is the rng's last use, so the benign prefix is
     byte-identical to the leaky=false output of the same seed. *)
  if leaky then begin
    match Sutil.Simrng.int rng ~bound:2 with
    | 0 -> add buf "  print_int((long)&mbuf);\n  print_newline();\n"
    | _ ->
        add buf
          "  if ((long)&mbuf < (long)&acc) { print_str(\"L\"); } else { \
           print_str(\"R\"); }\n\
          \  print_newline();\n"
  end;
  add buf "  print_int(acc);\n  print_newline();\n  return 0;\n}\n";
  Buffer.contents buf

let generate ~seed = gen ~leaky:false ~seed
let generate_leaky ~seed = gen ~leaky:true ~seed

let generate_many ~seed n =
  let rng = Sutil.Simrng.create ~seed in
  List.init n (fun _ -> generate ~seed:(Sutil.Simrng.next_u64 rng))

(* Campaign-scale corpora walk consecutive seeds through this lazy
   sequence: each source is generated when the consumer reaches it and
   dropped when the consumer moves on, so a 10^5-program range costs the
   memory of one program, not the corpus. *)
let range ~seed n =
  Seq.init n (fun i ->
      let pseed = Int64.add seed (Int64.of_int i) in
      (pseed, generate ~seed:pseed))

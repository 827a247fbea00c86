(* Progen as it was before the tree-printed rewrite, kept verbatim as
   the reference model for the differential property in test_minic.ml:
   nested [Printf.sprintf] whose arguments OCaml evaluates right to
   left, which fixes the order the generator draws from its rng. *)

(* The generator works over a tiny typed context: every variable in
   scope is a [long] scalar or a [long] array of known size; values are
   combined with total operators only. *)

type ctx = {
  rng : Sutil.Simrng.t;
  scalars : string list;  (** in-scope long scalars *)
  arrays : (string * int) list;  (** in-scope long arrays, pow2 sizes *)
  funcs : (string * int) list;  (** defined helpers: name, arity *)
  depth : int;
}

let pick rng l = List.nth l (Sutil.Simrng.int rng ~bound:(List.length l))

(* Expressions: total by construction.  Division and modulo get a
   "| 1"-forced divisor; shifts get masked counts. *)
let rec gen_expr (c : ctx) : string =
  let leaf () =
    match Sutil.Simrng.int c.rng ~bound:4 with
    | 0 -> string_of_int (Sutil.Simrng.int c.rng ~bound:2000 - 1000)
    | 1 | 2 when c.scalars <> [] -> pick c.rng c.scalars
    | _ when c.arrays <> [] ->
        let name, size = pick c.rng c.arrays in
        Printf.sprintf "%s[%s & %d]" name (gen_index c) (size - 1)
    | _ -> string_of_int (Sutil.Simrng.int c.rng ~bound:100)
  in
  if c.depth <= 0 then leaf ()
  else
    let sub () = gen_expr { c with depth = c.depth - 1 } in
    match Sutil.Simrng.int c.rng ~bound:12 with
    | 0 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 1 -> Printf.sprintf "(%s - %s)" (sub ()) (sub ())
    | 2 -> Printf.sprintf "(%s * %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s / ((%s & 7) + 1))" (sub ()) (sub ())
    | 4 -> Printf.sprintf "(%s %% ((%s & 15) + 1))" (sub ()) (sub ())
    | 5 -> Printf.sprintf "(%s & %s)" (sub ()) (sub ())
    | 6 -> Printf.sprintf "(%s | %s)" (sub ()) (sub ())
    | 7 -> Printf.sprintf "(%s ^ %s)" (sub ()) (sub ())
    | 8 -> Printf.sprintf "(%s << (%s & 7))" (sub ()) (sub ())
    | 9 -> Printf.sprintf "(%s >> (%s & 15))" (sub ()) (sub ())
    | 10 -> Printf.sprintf "(%s %s %s ? %s : %s)" (sub ())
              (pick c.rng [ "<"; "<="; ">"; ">="; "=="; "!=" ])
              (sub ()) (sub ()) (sub ())
    | _ when c.funcs <> [] ->
        let name, arity = pick c.rng c.funcs in
        Printf.sprintf "%s(%s)" name
          (String.concat ", " (List.init arity (fun _ -> sub ())))
    | _ -> leaf ()

and gen_index c =
  if c.scalars = [] then string_of_int (Sutil.Simrng.int c.rng ~bound:64)
  else pick c.rng c.scalars

let gen_stmt (c : ctx) ~indent : string =
  let pad = String.make indent ' ' in
  match Sutil.Simrng.int c.rng ~bound:6 with
  | 0 | 1 when c.scalars <> [] ->
      Printf.sprintf "%s%s %s %s;" pad (pick c.rng c.scalars)
        (pick c.rng [ "="; "+="; "-="; "^=" ])
        (gen_expr c)
  | 2 when c.arrays <> [] ->
      let name, size = pick c.rng c.arrays in
      Printf.sprintf "%s%s[%s & %d] = %s;" pad name (gen_index c) (size - 1)
        (gen_expr c)
  | 3 when c.scalars <> [] ->
      let v = pick c.rng c.scalars in
      Printf.sprintf "%sif (%s %s %s) { %s %s %s; } else { %s -= 1; }" pad
        (gen_expr c)
        (pick c.rng [ "<"; ">"; "==" ])
        (gen_expr c) v
        (pick c.rng [ "+="; "^=" ])
        (gen_expr c) v
  | _ when c.scalars <> [] ->
      (* constant-bounded loop over a fresh counter *)
      let v = pick c.rng c.scalars in
      let bound = 1 + Sutil.Simrng.int c.rng ~bound:7 in
      Printf.sprintf "%sfor (int it%d = 0; it%d < %d; it%d++) { %s += %s; }"
        pad indent indent bound indent v (gen_expr c)
  | _ -> pad ^ ";"

let gen_helper rng ~name ~arity ~funcs =
  let params = List.init arity (fun i -> Printf.sprintf "p%d" i) in
  let n_locals = 1 + Sutil.Simrng.int rng ~bound:3 in
  let locals = List.init n_locals (fun i -> Printf.sprintf "l%d" i) in
  let arr_size = 1 lsl (2 + Sutil.Simrng.int rng ~bound:3) in
  let c =
    {
      rng;
      scalars = params @ locals;
      arrays = [ ("buf", arr_size) ];
      funcs;
      depth = 2;
    }
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "long %s(%s) {\n" name
       (String.concat ", " (List.map (fun p -> "long " ^ p) params)));
  Buffer.add_string buf (Printf.sprintf "  long buf[%d];\n" arr_size);
  List.iteri
    (fun i l ->
      Buffer.add_string buf
        (Printf.sprintf "  long %s = %d;\n" l ((i * 37) + 5)))
    locals;
  Buffer.add_string buf
    (Printf.sprintf "  for (int z = 0; z < %d; z++) buf[z] = z * 3;\n" arr_size);
  let n_stmts = 2 + Sutil.Simrng.int rng ~bound:5 in
  for _ = 1 to n_stmts do
    Buffer.add_string buf (gen_stmt c ~indent:2);
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (Printf.sprintf "  return %s;\n}\n\n" (gen_expr c));
  Buffer.contents buf

let gen ~leaky ~seed =
  let rng = Sutil.Simrng.create ~seed in
  let buf = Buffer.create 1024 in
  (* globals *)
  let n_globals = 1 + Sutil.Simrng.int rng ~bound:3 in
  let globals = List.init n_globals (fun i -> Printf.sprintf "g%d" i) in
  List.iteri
    (fun i g ->
      Buffer.add_string buf
        (Printf.sprintf "long %s = %d;\n" g ((i * 11) + 1)))
    globals;
  Buffer.add_char buf '\n';
  (* helpers, each allowed to call the previous ones *)
  let n_funcs = 1 + Sutil.Simrng.int rng ~bound:3 in
  let funcs = ref [] in
  for i = 0 to n_funcs - 1 do
    let name = Printf.sprintf "h%d" i in
    let arity = 1 + Sutil.Simrng.int rng ~bound:2 in
    Buffer.add_string buf (gen_helper rng ~name ~arity ~funcs:!funcs);
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
      depth = 2;
    }
  in
  Buffer.add_string buf "int main() {\n  long acc = 0;\n  long mbuf[8];\n";
  Buffer.add_string buf "  for (int z = 0; z < 8; z++) mbuf[z] = z * 7;\n";
  let rounds = 2 + Sutil.Simrng.int rng ~bound:4 in
  for r = 1 to rounds do
    Buffer.add_string buf
      (Printf.sprintf "  acc = acc * 31 + %s;\n" (gen_expr c));
    if r mod 2 = 0 && globals <> [] then
      Buffer.add_string buf
        (Printf.sprintf "  %s += acc & 1023;\n" (pick rng globals))
  done;
  Buffer.add_string buf "  acc = acc * 31 + mbuf[acc & 7];\n";
  (* Leak-shaped tail (ground-truth positives for the leak analyzer and
     E19): either print a local's address outright, or branch on the
     relative order of two locals — a one-bit comparison oracle.  The
     shape draw is the rng's last use, so the benign prefix is
     byte-identical to the leaky=false output of the same seed. *)
  if leaky then begin
    match Sutil.Simrng.int rng ~bound:2 with
    | 0 ->
        Buffer.add_string buf
          "  print_int((long)&mbuf);\n  print_newline();\n"
    | _ ->
        Buffer.add_string buf
          "  if ((long)&mbuf < (long)&acc) { print_str(\"L\"); } else { \
           print_str(\"R\"); }\n\
          \  print_newline();\n"
  end;
  Buffer.add_string buf
    "  print_int(acc);\n  print_newline();\n  return 0;\n}\n";
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

type kind = Reference | Bytecode

type run_fn = ?fuel:int -> Exec.state -> Exec.outcome * Exec.stats

type t = { kind : kind; label : string; load : Ir.Prog.t -> run_fn; run : run_fn }

let kind_to_string = function Reference -> "ref" | Bytecode -> "bytecode"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "ref" | "reference" | "interp" -> Some Reference
  | "bytecode" | "bc" | "engine" -> Some Bytecode
  | _ -> None

let all_kinds = [ Reference; Bytecode ]

let make ~kind ~label ~load =
  let load (prog : Ir.Prog.t) =
    let run = load prog in
    fun ?fuel (st : Exec.state) ->
      if st.prog != prog then
        invalid_arg
          (Printf.sprintf "Machine.Backend(%s): state prepared from another program"
             label);
      run ?fuel st
  in
  let run ?fuel (st : Exec.state) = load st.prog ?fuel st in
  { kind; label; load; run }

let reference = make ~kind:Reference ~label:"reference" ~load:(fun _ -> Exec.run)

(* Backends register themselves at link time (the bytecode engine lives
   in a separate library that depends on this one); the reference
   interpreter is always available. *)
let registry : (kind, t) Hashtbl.t = Hashtbl.create 4
let () = Hashtbl.replace registry Reference reference
let register b = Hashtbl.replace registry b.kind b
let find_opt kind = Hashtbl.find_opt registry kind

let find kind =
  match find_opt kind with
  | Some b -> b
  | None ->
      failwith
        (Printf.sprintf
           "Machine.Backend.find: backend %S is not linked into this executable"
           (kind_to_string kind))

type value = Const of int64 | Addr_of_global of string

type write = { target : string; value : value }
type step = { writes : write list }

type goal =
  | Flip_global of string * int64
  | Output_contains of string
  | Output_differs

type family = Direct_flip | Aim_write | Dispatch_loop

type t = {
  chain_id : string;
  family : family;
  target : string;
  func : string;
  buffer : string;
  slots : (string * int * int) list;
  steps : step list;
  goal : goal;
  pair_ids : string list;
  note : string;
}

let value_to_string = function
  | Const v -> Int64.to_string v
  | Addr_of_global g -> "&" ^ g

let goal_to_string = function
  | Flip_global (g, c) -> Printf.sprintf "flip %s=%Ld" g c
  | Output_contains m -> Printf.sprintf "output has %S" m
  | Output_differs -> "output differs"

let strong_goal c =
  match c.goal with
  | Flip_global _ | Output_contains _ -> true
  | Output_differs -> false

let family_to_string = function
  | Direct_flip -> "direct-flip"
  | Aim_write -> "aim-write"
  | Dispatch_loop -> "dispatch-loop"

let digest_fields fields =
  let b = Buffer.create 128 in
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    fields;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12

let make ~family ~target ~func ~buffer ~slots ~steps ~goal ~pair_ids ~note =
  let step_field { writes } =
    String.concat ","
      (List.map
         (fun (w : write) -> w.target ^ "=" ^ value_to_string w.value)
         writes)
  in
  let chain_id =
    digest_fields
      ([ family_to_string family; target; func; buffer; goal_to_string goal ]
      @ List.map
          (fun (n, s, a) -> Printf.sprintf "%s/%d/%d" n s a)
          slots
      @ List.map step_field steps)
  in
  { chain_id; family; target; func; buffer; slots; steps; goal; pair_ids;
    note }

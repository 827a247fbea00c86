module J = Sutil.Json

type t = { kind : string; version : int; payload : J.t }

let to_json ~key e =
  J.Obj
    [
      ("key", Key.to_json key);
      ("kind", J.String e.kind);
      ("version", J.Int e.version);
      ("payload", e.payload);
    ]

let of_json j =
  match
    ( Option.bind (J.member "key" j) Key.of_json,
      Option.bind (J.member "kind" j) J.to_str_opt,
      Option.bind (J.member "version" j) J.to_int_opt,
      J.member "payload" j )
  with
  | Some key, Some kind, Some version, Some payload ->
      Some (key, { kind; version; payload })
  | _ -> None

(* Execution outcomes *)

type exec = {
  outcome : string;
  exit_code : int64 option;
  stats : Machine.Exec.stats;
  pbox_bytes : int option;
}

let exec_kind = "exec"
let exec_version = 1

let exec_of_run ?pbox_bytes (outcome, stats) =
  let exit_code =
    match outcome with Machine.Exec.Exit c -> Some c | _ -> None
  in
  {
    outcome = Machine.Exec.outcome_to_string outcome;
    exit_code;
    stats;
    pbox_bytes;
  }

(* Cycles are accumulated floats whose exact value the byte-identical
   report contract depends on, so they are stored as their IEEE-754 bit
   pattern rather than a decimal rendering. *)
let bits_of_cycles c = Printf.sprintf "%016Lx" (Int64.bits_of_float c)

let cycles_of_bits s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some b -> Some (Int64.float_of_bits b)
  | None -> None

let exec_entry e =
  let s = e.stats in
  let payload =
    J.Obj
      ([ ("outcome", J.String e.outcome) ]
      @ (match e.exit_code with
        | Some c -> [ ("exit_code", J.String (Int64.to_string c)) ]
        | None -> [])
      @ [
          ("cycles_bits", J.String (bits_of_cycles s.cycles));
          ("instr_count", J.Int s.instr_count);
          ("call_count", J.Int s.call_count);
          ("max_depth", J.Int s.max_depth);
          ("max_frame_bytes", J.Int s.max_frame_bytes);
          ("rss_bytes", J.Int s.rss_bytes);
          ("output", J.String s.output);
        ]
      @
      match e.pbox_bytes with
      | Some b -> [ ("pbox_bytes", J.Int b) ]
      | None -> [])
  in
  { kind = exec_kind; version = exec_version; payload }

let exec_of_entry e =
  if e.kind <> exec_kind || e.version <> exec_version then None
  else
    let j = e.payload in
    let str k = Option.bind (J.member k j) J.to_str_opt in
    let int k = Option.bind (J.member k j) J.to_int_opt in
    match
      ( str "outcome",
        Option.bind (str "cycles_bits") cycles_of_bits,
        (int "instr_count", int "call_count", int "max_depth"),
        (int "max_frame_bytes", int "rss_bytes", str "output") )
    with
    | ( Some outcome,
        Some cycles,
        (Some instr_count, Some call_count, Some max_depth),
        (Some max_frame_bytes, Some rss_bytes, Some output) ) ->
        let exit_code = Option.bind (str "exit_code") Int64.of_string_opt in
        Some
          {
            outcome;
            exit_code;
            stats =
              {
                Machine.Exec.cycles;
                instr_count;
                call_count;
                max_depth;
                max_frame_bytes;
                rss_bytes;
                output;
              };
            pbox_bytes = int "pbox_bytes";
          }
    | _ -> None

(* Attack verdict lists *)

let verdicts_kind = "verdicts"
let verdicts_version = 1

let verdicts_entry vs =
  let payload =
    J.List
      (List.map
         (fun (tag, detail) ->
           J.Obj [ ("tag", J.String tag); ("detail", J.String detail) ])
         vs)
  in
  { kind = verdicts_kind; version = verdicts_version; payload }

let verdicts_of_entry e =
  if e.kind <> verdicts_kind || e.version <> verdicts_version then None
  else
    let decode j =
      match
        ( Option.bind (J.member "tag" j) J.to_str_opt,
          Option.bind (J.member "detail" j) J.to_str_opt )
      with
      | Some tag, Some detail -> Some (tag, detail)
      | _ -> None
    in
    let items = List.map decode (J.to_list e.payload) in
    if List.for_all Option.is_some items then
      Some (List.filter_map Fun.id items)
    else None

type rel_layout = (string * int) list

let binary_offsets prog ~func ~buffer ~vars =
  match Ir.Prog.find_func prog func with
  | None -> None
  | Some f -> (
      let frame = Attacks.Layout.frame_of_func f in
      match Attacks.Layout.var_offset frame buffer with
      | None -> None
      | Some b ->
          let resolved =
            List.map
              (fun v ->
                Option.map (fun o -> (v, o - b)) (Attacks.Layout.var_offset frame v))
              vars
          in
          if List.exists Option.is_none resolved then None
          else Some (List.filter_map Fun.id resolved))

let guess_table ~slots ~fid_slot ~seed =
  let slots = if fid_slot then slots @ [ ("__ss_fid", 8, 8) ] else slots in
  let n = List.length slots in
  let rng = Sutil.Simrng.create ~seed in
  let arr = Array.of_list slots in
  Sutil.Simrng.shuffle rng arr;
  (* Lay the guessed order out exactly as the defense would (its design
     is public): oversized frames are decoded at runtime into a slab
     that starts with a u32-per-slot scratch area, smaller ones start at
     the slab base. *)
  let scratch =
    if n > Smokestack.Config.default.max_exhaustive_vars then
      Sutil.Align.align_up (4 * n) ~alignment:16
    else 0
  in
  let offsets = Hashtbl.create 16 in
  let ind = ref scratch in
  Array.iter
    (fun (name, size, alignment) ->
      ind := Sutil.Align.align_up !ind ~alignment;
      Hashtbl.replace offsets name !ind;
      ind := !ind + size)
    arr;
  offsets

let find_slot offsets v =
  match Hashtbl.find_opt offsets v with
  | Some o -> o
  | None -> invalid_arg ("Apps.Dopkit: no slot named " ^ v)

let guessed_offsets ~slots ~buffer ~vars ~fid_slot ~seed =
  let offsets = guess_table ~slots ~fid_slot ~seed in
  let base = find_slot offsets buffer in
  List.map (fun v -> (v, find_slot offsets v - base)) vars

let guessed_slab_offsets ~slots ~vars ~fid_slot ~seed =
  let offsets = guess_table ~slots ~fid_slot ~seed in
  List.map (fun v -> (v, find_slot offsets v)) vars

let goal_in_output marker (stats : Machine.Exec.stats) =
  let hay = stats.output and needle = marker in
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  ||
  let found = ref false in
  for i = 0 to nh - nn do
    if (not !found) && String.sub hay i nn = needle then found := true
  done;
  !found

type result = {
  verdict : Attacks.Verdict.t;
  stats : Machine.Exec.stats option;
  requests : int;
}

type attack =
  backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  seed:int64 ->
  result

(* A layout guess can be geometrically impossible (victim below the
   buffer, overlapping writes): the attempt is simply wasted. *)
let deliver ~backend applied ~seed ~marker craft =
  match craft () with
  | exception Invalid_argument _ ->
      { verdict = Attacks.Verdict.No_effect; stats = None; requests = 0 }
  | chunks ->
      let outcome, stats = Runner.run_chunks ~backend applied ~seed ~chunks in
      {
        verdict =
          Attacks.Verdict.classify outcome ~goal_met:(goal_in_output marker stats);
        stats = Some stats;
        requests = List.length chunks;
      }

type exhaustive = {
  entry_index : int;
  canon_of_orig : int array;
  dummy_slots : int;
}

type mode = Exhaustive of exhaustive | Dynamic of { dyn_id : int }
type binding = { bfunc : string; n_orig : int; mode : mode }

type entry = {
  key : (int * int) list;
  canon_meta : (int * int) array;
  table : Permgen.table;
  rows_materialized : int;
  byte_offset : int;
  mutable users : string list;
}

type dyn_binding = {
  dyn_id : int;
  dfunc : string;
  metas : (int * int) array;
  scratch_bytes : int;
  dyn_max_total : int;
}

type t = {
  entries : entry array;
  dyns : dyn_binding array;
  bindings : (string, binding) Hashtbl.t;
  blob : string;
  config : Config.t;
}

let row_stride (e : entry) = 4 * Array.length e.canon_meta

(* Canonical order: descending (size, alignment).  Any deterministic
   order works; descending keeps big buffers first, which also gives the
   shared tables a stable visual layout in dumps. *)
let canonicalize metas =
  let canon = Array.copy metas in
  Array.sort (fun a b -> compare b a) canon;
  canon

let key_of metas = Array.to_list (canonicalize metas)

(* Match each original slot to a distinct canonical column with the
   same (size, alignment). *)
let canon_map ~canon metas =
  let used = Array.make (Array.length canon) false in
  Array.map
    (fun m ->
      let rec find j =
        if j >= Array.length canon then
          invalid_arg "Smokestack.Pbox: canonical map mismatch"
        else if (not used.(j)) && canon.(j) = m then begin
          used.(j) <- true;
          j
        end
        else find (j + 1)
      in
      find 0)
    metas

(* Is [small] a sub-multiset of [big] with exactly one extra primitive
   (scalar-sized) allocation left over? *)
let one_extra_primitive ~small ~big =
  let remaining = ref big in
  let ok =
    List.for_all
      (fun m ->
        let rec remove acc = function
          | [] -> None
          | x :: rest when x = m -> Some (List.rev_append acc rest)
          | x :: rest -> remove (x :: acc) rest
        in
        match remove [] !remaining with
        | Some rest ->
            remaining := rest;
            true
        | None -> false)
      small
  in
  match (ok, !remaining) with
  | true, [ (size, _) ] when size <= 16 -> true
  | _ -> false

(* [elided] (selective hardening) lists functions that participate in
   group formation and table generation exactly as under full hardening
   — the per-entry row shuffles consume a single shared [shuffle_rng]
   stream, so dropping a function up front would reshuffle every other
   function's table and break the selective-vs-full bit-identity the
   harness asserts — but receive no binding, are not recorded as users,
   and tables left with no users at all are not serialized (that is the
   P-BOX byte saving). *)
let build ?(seed = 1L) ?(elided = []) (config : Config.t) funcs =
  let is_elided fname = List.mem fname elided in
  let shuffle_rng = Sutil.Simrng.create ~seed in
  let funcs = List.filter (fun (_, metas) -> Array.length metas > 0) funcs in
  let exhaustive, dynamic =
    List.partition
      (fun (_, metas) -> Array.length metas <= config.Config.max_exhaustive_vars)
      funcs
  in
  (* Group exhaustively-tabled functions by key (or privately when
     sharing is off). *)
  let groups : ((int * int) list * (string * (int * int) array) list) list ref =
    ref []
  in
  List.iter
    (fun (fname, metas) ->
      let key = key_of metas in
      if config.share_tables then begin
        match List.assoc_opt key !groups with
        | Some _ ->
            groups :=
              List.map
                (fun (k, m) -> if k = key then (k, (fname, metas) :: m) else (k, m))
                !groups
        | None -> groups := (key, [ (fname, metas) ]) :: !groups
      end
      else groups := (key, [ (fname, metas) ]) :: !groups)
    exhaustive;
  (* Rounding-up: larger groups first so smaller ones can adopt them.
     Only meaningful when tables are shared. *)
  let groups =
    List.sort
      (fun (ka, _) (kb, _) -> compare (List.length kb) (List.length ka))
      (List.rev !groups)
  in
  let entries : entry list ref = ref [] in
  let bindings = Hashtbl.create 32 in
  let bind_into ~entry_index ~(entry : entry) ~dummy (fname, metas) =
    if not (is_elided fname) then begin
      let canon_of_orig = canon_map ~canon:entry.canon_meta metas in
      entry.users <- fname :: entry.users;
      Hashtbl.replace bindings fname
        {
          bfunc = fname;
          n_orig = Array.length metas;
          mode = Exhaustive { entry_index; canon_of_orig; dummy_slots = dummy };
        }
    end
  in
  List.iter
    (fun (key, members) ->
      let adopt =
        if config.share_tables && config.round_up_allocs then
          List.find_index
            (fun (e : entry) -> one_extra_primitive ~small:key ~big:e.key)
            !entries
        else None
      in
      match adopt with
      | Some entry_index ->
          let entry = List.nth !entries entry_index in
          List.iter
            (fun (fname, metas) ->
              (* Map against the bigger canonical set: the unmatched
                 column is the dummy slot, which only consumes frame
                 space. *)
              if not (is_elided fname) then begin
                let canon_of_orig = canon_map ~canon:entry.canon_meta metas in
                entry.users <- fname :: entry.users;
                Hashtbl.replace bindings fname
                  {
                    bfunc = fname;
                    n_orig = Array.length metas;
                    mode =
                      Exhaustive { entry_index; canon_of_orig; dummy_slots = 1 };
                  }
              end)
            members
      | None ->
          let canon_meta = canonicalize (snd (List.hd members)) in
          let table = Permgen.generate ~shuffle:shuffle_rng canon_meta in
          let rows = Array.length table.offsets in
          let rows_materialized =
            if config.pow2_pbox then Sutil.Align.next_pow2 rows else rows
          in
          let entry =
            {
              key;
              canon_meta;
              table;
              rows_materialized;
              byte_offset = 0 (* assigned at serialization *);
              users = [];
            }
          in
          let entry_index = List.length !entries in
          entries := !entries @ [ entry ];
          List.iter (bind_into ~entry_index ~entry ~dummy:0) members)
    groups;
  (* Serialize: tables back to back, u32 little-endian, wrapping rows
     for the power-of-2 materialization.  A table every user of which
     was elided never gets read: its rows are skipped.  The entry itself
     stays (indices into [entries] were already handed out), pointing at
     offset 0 of a region it does not own — harmless, since nothing is
     bound to it. *)
  let entries = Array.of_list !entries in
  let serialized (e : entry) = e.users <> [] in
  let blob =
    Bytes.create
      (Array.fold_left
         (fun acc e ->
           if serialized e then acc + (e.rows_materialized * row_stride e) else acc)
         0 entries)
  in
  let pos = ref 0 in
  let entries =
    Array.map
      (fun e ->
        if not (serialized e) then { e with byte_offset = 0 }
        else begin
          let byte_offset = !pos in
          let real_rows = Array.length e.table.offsets in
          for r = 0 to e.rows_materialized - 1 do
            Array.iter
              (fun v ->
                Bytes.set_int32_le blob !pos (Int32.of_int v);
                pos := !pos + 4)
              e.table.offsets.(r mod real_rows)
          done;
          { e with byte_offset }
        end)
      entries
  in
  (* Dynamic bindings for oversized frames. *)
  let dynamic =
    List.filter (fun (fname, _) -> not (is_elided fname)) dynamic
  in
  let dyns =
    Array.of_list
      (List.mapi
         (fun dyn_id (fname, metas) ->
           let n = Array.length metas in
           let scratch_bytes = Sutil.Align.align_up (4 * n) ~alignment:16 in
           let worst =
             Array.fold_left
               (fun acc (size, alignment) -> acc + size + alignment - 1)
               0 metas
           in
           Hashtbl.replace bindings fname
             { bfunc = fname; n_orig = n; mode = Dynamic { dyn_id } };
           {
             dyn_id;
             dfunc = fname;
             metas;
             scratch_bytes;
             dyn_max_total =
               Sutil.Align.align_up (scratch_bytes + worst) ~alignment:16;
           })
         dynamic)
  in
  { entries; dyns; bindings; blob = Bytes.unsafe_to_string blob; config }

let binding t fname = Hashtbl.find_opt t.bindings fname

let entry_of t b =
  match b.mode with
  | Exhaustive { entry_index; _ } -> Some t.entries.(entry_index)
  | Dynamic _ -> None

let dyn_of t b =
  match b.mode with
  | Dynamic { dyn_id } -> Some t.dyns.(dyn_id)
  | Exhaustive _ -> None

let blob_bytes t = String.length t.blob

let max_total t b =
  match b.mode with
  | Exhaustive { entry_index; _ } -> t.entries.(entry_index).table.max_total
  | Dynamic { dyn_id } -> t.dyns.(dyn_id).dyn_max_total

let lookup_offsets t b ~row =
  match b.mode with
  | Dynamic _ ->
      invalid_arg "Smokestack.Pbox.lookup_offsets: dynamic binding has no table"
  | Exhaustive { entry_index; canon_of_orig; _ } ->
      let e = t.entries.(entry_index) in
      if row < 0 || row >= e.rows_materialized then
        invalid_arg "Smokestack.Pbox.lookup_offsets: row out of range";
      let stride = row_stride e in
      let base = e.byte_offset + (row * stride) in
      Array.map
        (fun canon_col ->
          let off = base + (4 * canon_col) in
          Char.code t.blob.[off]
          lor (Char.code t.blob.[off + 1] lsl 8)
          lor (Char.code t.blob.[off + 2] lsl 16)
          lor (Char.code t.blob.[off + 3] lsl 24))
        canon_of_orig

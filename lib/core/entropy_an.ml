type slot_stats = {
  orig_index : int;
  distinct_offsets : int;
  collision_probability : float;
}

type t = {
  rows : int;
  distinct_layouts : int;
  per_slot : slot_stats list;
  whole_frame_collision : float;
  expected_bruteforce_attempts : float;
}

let collision_of_counts total counts =
  let t = float_of_int total in
  Hashtbl.fold
    (fun _ c acc ->
      let p = float_of_int c /. t in
      acc +. (p *. p))
    counts 0.

let of_rows (rows : int array array) =
  let n_rows = Array.length rows in
  if n_rows = 0 then
    {
      rows = 0;
      distinct_layouts = 0;
      per_slot = [];
      whole_frame_collision = 1.;
      expected_bruteforce_attempts = 1.;
    }
  else begin
    let n_slots = Array.length rows.(0) in
    let per_slot =
      List.init n_slots (fun i ->
          let counts = Hashtbl.create 16 in
          Array.iter
            (fun row ->
              let o = row.(i) in
              Hashtbl.replace counts o
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
            rows;
          {
            orig_index = i;
            distinct_offsets = Hashtbl.length counts;
            collision_probability = collision_of_counts n_rows counts;
          })
    in
    let layout_counts = Hashtbl.create 64 in
    Array.iter
      (fun row ->
        let key = Array.to_list row in
        Hashtbl.replace layout_counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt layout_counts key)))
      rows;
    let whole = collision_of_counts n_rows layout_counts in
    {
      rows = n_rows;
      distinct_layouts = Hashtbl.length layout_counts;
      per_slot;
      whole_frame_collision = whole;
      expected_bruteforce_attempts = (if whole > 0. then 1. /. whole else infinity);
    }
  end

let of_table (table : Permgen.table) = of_rows table.offsets

let subset_collision (table : Permgen.table) ~slots =
  let rows = table.offsets in
  let n_rows = Array.length rows in
  if n_rows = 0 then 1.
  else begin
    let counts = Hashtbl.create 64 in
    Array.iter
      (fun row ->
        let key = List.map (fun s -> row.(s)) slots in
        Hashtbl.replace counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
      rows;
    collision_of_counts n_rows counts
  end

let of_binding (pbox : Pbox.t) (b : Pbox.binding) =
  match b.mode with
  | Pbox.Exhaustive { entry_index; canon_of_orig; _ } ->
      let e = pbox.entries.(entry_index) in
      let rows =
        Array.init e.rows_materialized (fun row ->
            ignore canon_of_orig;
            Pbox.lookup_offsets pbox b ~row)
      in
      of_rows rows
  | Pbox.Dynamic { dyn_id } ->
      (* sample the runtime decoder's distribution *)
      let dyn = pbox.dyns.(dyn_id) in
      let n = Array.length dyn.metas in
      let rng = Sutil.Simrng.create ~seed:0xEA7L in
      let rows =
        Array.init 4096 (fun _ ->
            let order = Array.init n Fun.id in
            Sutil.Simrng.shuffle rng order;
            let offsets = Array.make n 0 in
            let ind = ref dyn.scratch_bytes in
            Array.iter
              (fun slot ->
                let size, alignment = dyn.metas.(slot) in
                ind := Sutil.Align.align_up !ind ~alignment;
                offsets.(slot) <- !ind;
                ind := !ind + size)
              order;
            offsets)
      in
      of_rows rows

let attempts_to_string a =
  if a = infinity then "-"
  else if a >= 1e6 then Printf.sprintf "%.2e" a
  else if Float.is_integer a then Printf.sprintf "%.0f" a
  else Printf.sprintf "%.1f" a

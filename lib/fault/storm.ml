type t = {
  bursts : (int * int) list;
  attack_pct : int;
  chaos_pct : int;
}

let plan ?(bursts = 3) ?burst_len ?(attack_pct = 35) ?(chaos_pct = 30) ~root
    ~sessions () =
  if sessions <= 0 then invalid_arg "Fault.Storm.plan: sessions must be > 0";
  let bursts = max 1 bursts in
  let burst_len =
    match burst_len with
    | Some l -> max 1 l
    | None -> max 1 (sessions / 6)
  in
  let seg = max 1 (sessions / bursts) in
  (* One burst per equal segment of the schedule, start drawn from the
     segment's own keyed stream: windows are disjoint by construction
     and independent of draw order. *)
  let windows =
    List.init bursts (fun k ->
        let rng =
          Sutil.Simrng.stream ~root ~id:(Printf.sprintf "storm/%02d" k)
        in
        let lo = k * seg in
        let hi = min sessions ((k + 1) * seg) in
        let span = max 1 (hi - lo - burst_len) in
        let start = lo + Sutil.Simrng.int rng ~bound:span in
        (start, min hi (start + burst_len)))
  in
  let windows = List.filter (fun (a, b) -> b > a) windows in
  { bursts = windows; attack_pct; chaos_pct }

let in_burst t sid = List.exists (fun (a, b) -> sid >= a && sid < b) t.bursts

let rates_at t sid ~base =
  if in_burst t sid then (t.attack_pct, t.chaos_pct) else base

let storm_sessions t =
  List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 t.bursts

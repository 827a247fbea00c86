(* perf.exe compare OLD.json... -- NEW.json...

   One row per (workload, end-to-end metric): each side's median and
   quartiles over its invocations, the share of pairs the new side won,
   the change against the metric's bound, and a verdict.  Exit code 1
   when any row is a regression. *)

module J = Sutil.Json

(* (workload, metric) -> median, from one workload's --json document or
   from a full run's (which lists every workload). *)
let medians_of path =
  let doc = J.of_string_exn (In_channel.with_open_text path In_channel.input_all) in
  let docs = match J.member "workloads" doc with Some l -> J.to_list l | None -> [ doc ] in
  List.concat_map
    (fun d ->
      let w = Option.value ~default:"?" (Option.bind (J.member "workload" d) J.to_str_opt) in
      match J.member "metrics" d with
      | Some (J.Obj ms) ->
          List.filter_map
            (fun (n, m) ->
              Option.map (fun v -> ((w, n), v)) (Option.bind (J.member "value" m) J.to_float_opt))
            ms
      | _ -> [])
    docs

let spread xs =
  let q1, med, q3 = Stat.quartiles xs in
  if med <> 0. then (q3 -. q1) /. Float.abs med else if q3 = q1 then 0. else infinity

(* The rule of the choosing-metrics guide.  A gain needs the new side to
   win at least nine tenths of the pairs and to move the median by more
   than the old side's quartile spread.  When either side's spread
   exceeds the bound the row is unresolved, unless every new run beats
   every old one.  Otherwise a median worse by more than the bound is a
   regression. *)
let verdict (m : Catalogue.e2e) old_ new_ =
  let better x y = match m.better with Lower -> x < y | Higher -> x > y in
  let pairs =
    if List.length old_ = List.length new_ then List.combine old_ new_
    else List.concat_map (fun x -> List.map (fun y -> (x, y)) new_) old_
  in
  let won = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let share = float_of_int won /. float_of_int (List.length pairs) in
  let q1o, mo, q3o = Stat.quartiles old_ and mn = Sutil.Stats.median new_ in
  let worse_by =
    let d = match m.better with Lower -> mn -. mo | Higher -> mo -. mn in
    if mo <> 0. then d /. Float.abs mo else if d > 0. then infinity else 0.
  in
  let all_better = List.for_all (fun y -> List.for_all (better y) old_) new_ in
  let v =
    if (share >= 0.9 && better mn mo && Float.abs (mn -. mo) > q3o -. q1o) || all_better then
      "better"
    else if Float.max (spread old_) (spread new_) > m.bound then "unresolved"
    else if worse_by > m.bound then "REGRESSION"
    else "same"
  in
  (share, worse_by, v)

let main olds news =
  let a = List.map medians_of olds and b = List.map medians_of news in
  let keys = List.sort_uniq compare (List.concat_map (List.map fst) (a @ b)) in
  let fmt = Printf.sprintf "%.4g" in
  let quart xs =
    let q1, _, q3 = Stat.quartiles xs in
    fmt q1 ^ ".." ^ fmt q3
  in
  let rows =
    List.filter_map
      (fun ((w, n) as key) ->
        let side s = List.filter_map (List.assoc_opt key) s in
        match (Catalogue.find_e2e n, side a, side b) with
        | Some m, (_ :: _ as o), (_ :: _ as x) ->
            let share, worse_by, v = verdict m o x in
            Some
              ( v,
                [
                  w; Printf.sprintf "%s (%s)" n m.unit_; fmt (Sutil.Stats.median o); fmt (Sutil.Stats.median x);
                  quart o; quart x; Printf.sprintf "%.0f%%" (share *. 100.);
                  Printf.sprintf "%+.1f%%" (-.worse_by *. 100.);
                  Printf.sprintf "%.0f%%" (m.bound *. 100.); v;
                ] )
        | _ -> None)
      keys
  in
  let t =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("workload", Left); ("metric", Left); ("old", Right); ("new", Right);
            ("old q1..q3", Right); ("new q1..q3", Right); ("pairs won", Right);
            ("gain", Right); ("bound", Right); ("verdict", Left);
          ]
  in
  List.iter (fun (_, cells) -> Sutil.Texttable.add_row t cells) rows;
  print_string (Sutil.Texttable.render t);
  let regressions = List.length (List.filter (fun (v, _) -> v = "REGRESSION") rows) in
  Printf.printf "%d old and %d new invocations; %d regression(s)\n" (List.length olds)
    (List.length news) regressions;
  if regressions = 0 then 0 else 1

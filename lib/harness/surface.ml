type row = {
  pname : string;
  pkind : string;
  n_funcs : int;
  n_slots : int;
  n_overflow : int;
  n_victims : int;
  n_pairs : int;
  easiest : (string * float) list;
  hints_ok : bool;
}

type t = { rows : row list; defense_names : string list }

let programs () =
  List.map
    (fun (w : Apps.Spec.workload) ->
      let kind = match w.kind with `Spec -> "spec" | `Io -> "io" in
      (* Spec/Synth lazies are shared across jobs, so they are forced
         here in the submitting domain; only the progen programs compile
         inside their jobs. *)
      let prog = Lazy.force w.program in
      (w.wname, kind, (fun () -> prog), w.dop_hints))
    Apps.Spec.all
  @ List.map
      (fun (v : Apps.Synth.variant) ->
        let prog = Lazy.force v.program in
        (v.vname, "synth", (fun () -> prog), []))
      Apps.Synth.variants
  @ List.map
      (fun (seed, source) ->
        (Printf.sprintf "progen-%Ld" seed, "progen", (fun () -> Minic.Driver.compile source), []))
      (List.of_seq (Minic.Progen.range ~seed:9001L 4))

let hints_hold (report : Analysis.Report.t) hints =
  List.for_all
    (fun (f, s) ->
      List.exists
        (fun (fa : Analysis.Funcan.t) ->
          fa.fname = f
          && List.exists
               (fun (sl : Analysis.Funcan.slot) ->
                 sl.name = s && sl.overflow <> [])
               fa.slots)
        report.analyses)
    hints

let run ?(pool = Sched.Pool.sequential) () =
  let rows =
    Sched.Pool.run_all pool
      (List.map
         (fun (pname, pkind, prog, hints) ->
           Sched.Job.v ~id:("e12/" ^ pname) ~seed:3L (fun () ->
               let report = Analysis.Report.analyze_prog ~name:pname ~score:true (prog ()) in
               let sum f =
                 List.fold_left
                   (fun acc (fs : Analysis.Report.func_summary) -> acc + f fs)
                   0 report.funcs
               in
               {
                 pname;
                 pkind;
                 n_funcs = List.length report.funcs;
                 n_slots = sum (fun fs -> fs.n_slots);
                 n_overflow = sum (fun fs -> fs.n_overflow);
                 n_victims = sum (fun fs -> fs.n_victims);
                 n_pairs = List.length report.pairs;
                 easiest = Analysis.Report.summary report;
                 hints_ok = hints_hold report hints;
               }))
         (programs ()))
  in
  { rows; defense_names = Analysis.Score.defense_names }

let table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        (Sutil.Texttable.
           [
             ("program", Left);
             ("kind", Left);
             ("funcs", Right);
             ("slots", Right);
             ("overflow", Right);
             ("victims", Right);
             ("pairs", Right);
             ("hints", Left);
           ]
        @ List.map
            (fun d -> (d, Sutil.Texttable.Right))
            t.defense_names)
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        ([
           r.pname;
           r.pkind;
           string_of_int r.n_funcs;
           string_of_int r.n_slots;
           string_of_int r.n_overflow;
           string_of_int r.n_victims;
           string_of_int r.n_pairs;
           (if r.hints_ok then "ok" else "MISS");
         ]
        @ List.map
            (fun d ->
              match List.assoc_opt d r.easiest with
              | Some a -> Smokestack.Entropy_an.attempts_to_string a
              | None -> "-")
            t.defense_names))
    t.rows;
  tbl

let output t =
  [ Output.table "analysis" "E12: static DOP attack surface (expected attempts, easiest pair)" (table t) ]

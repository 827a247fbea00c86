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

let programs ~progen =
  List.map
    (fun (w : Apps.Spec.workload) ->
      let kind = match w.kind with `Spec -> "spec" | `Io -> "io" in
      (* Spec/Synth lazies are shared across jobs, so they are forced
         here in the submitting domain; only the job-local progen
         compiles below stay lazy (skipped entirely on a warm store). *)
      (w.wname, kind, Lazy.from_val (Lazy.force w.program), None, w.dop_hints))
    Apps.Spec.all
  @ List.map
      (fun (v : Apps.Synth.variant) ->
        (v.vname, "synth", Lazy.from_val (Lazy.force v.program), None, []))
      Apps.Synth.variants
  @ List.map
      (fun (seed, source) ->
        ( Printf.sprintf "progen-%Ld" seed,
          "progen",
          lazy (Minic.Driver.compile source),
          Some source,
          [] ))
      (List.of_seq (Minic.Progen.range ~seed:9001L progen))

(* The analyzer row crosses the store as a "surface-row" entry.  The
   easiest-pair attempt counts are floats that can be [infinity]
   (unreachable pair), which JSON has no literal for, so they travel as
   IEEE-754 bit patterns — also making the cached row bit-identical to
   the fresh one. *)
let row_kind = "surface-row"
let row_version = 1

let row_entry r =
  let module J = Sutil.Json in
  Store.Entry.make ~kind:row_kind ~version:row_version
    (J.Obj
       [
         ("n_funcs", J.Int r.n_funcs);
         ("n_slots", J.Int r.n_slots);
         ("n_overflow", J.Int r.n_overflow);
         ("n_victims", J.Int r.n_victims);
         ("n_pairs", J.Int r.n_pairs);
         ( "easiest",
           J.List
             (List.map
                (fun (d, a) ->
                  J.Obj
                    [
                      ("defense", J.String d);
                      ( "attempts_bits",
                        J.String
                          (Printf.sprintf "%016Lx" (Int64.bits_of_float a)) );
                    ])
                r.easiest) );
         ("hints_ok", J.Bool r.hints_ok);
       ])

let row_of_entry ~pname ~pkind (e : Store.Entry.t) =
  let module J = Sutil.Json in
  if e.kind <> row_kind || e.version <> row_version then None
  else
    let j = e.payload in
    let int k = Option.bind (J.member k j) J.to_int_opt in
    let easiest =
      List.map
        (fun item ->
          match
            ( Option.bind (J.member "defense" item) J.to_str_opt,
              Option.bind (J.member "attempts_bits" item) J.to_str_opt )
          with
          | Some d, Some bits -> (
              match Int64.of_string_opt ("0x" ^ bits) with
              | Some b -> Some (d, Int64.float_of_bits b)
              | None -> None)
          | _ -> None)
        (J.to_list (Option.value ~default:(J.List []) (J.member "easiest" j)))
    in
    match
      ( (int "n_funcs", int "n_slots", int "n_overflow"),
        (int "n_victims", int "n_pairs"),
        Option.bind (J.member "hints_ok" j) (function
          | J.Bool b -> Some b
          | _ -> None) )
    with
    | ( (Some n_funcs, Some n_slots, Some n_overflow),
        (Some n_victims, Some n_pairs),
        Some hints_ok )
      when List.for_all Option.is_some easiest ->
        Some
          {
            pname;
            pkind;
            n_funcs;
            n_slots;
            n_overflow;
            n_victims;
            n_pairs;
            easiest = List.filter_map Fun.id easiest;
            hints_ok;
          }
    | _ -> None

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

let run ?(pool = Sched.Pool.sequential) ?store ?(progen = 4) ?(score = true) ()
    =
  let programs = programs ~progen in
  let rows =
    Sched.Pool.run_all pool
      (List.map
         (fun (pname, pkind, prog, source, hints) ->
           Sched.Job.v ~id:("e12/" ^ pname) ~seed:3L (fun () ->
               let analyze () =
                 let report =
                   Analysis.Report.analyze_prog ~name:pname ~score
                     (Lazy.force prog)
                 in
                 let sum f =
                   List.fold_left
                     (fun acc (fs : Analysis.Report.func_summary) ->
                       acc + f fs)
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
                   easiest =
                     (if score then Analysis.Report.summary report else []);
                   hints_ok = hints_hold report hints;
                 }
               in
               match (store, source) with
               | Some store, Some source ->
                   (* static analysis: no execution engine or run seed
                      is involved, so those key fields are pinned *)
                   Store.Cache.memo store
                     (Store.Key.of_source ~source_text:source ~config:None
                        ~engine:Machine.Backend.Reference ~seed:0L
                        ~extra:(Printf.sprintf "surface;score=%b" score)
                        ())
                     ~encode:row_entry
                     ~decode:(row_of_entry ~pname ~pkind)
                     analyze
               | _ -> analyze ()))
         programs)
  in
  { rows; defense_names = (if score then Analysis.Score.defense_names else []) }

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

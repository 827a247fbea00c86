(* End-to-end and per-layer benchmark.

     dune exec bench/perf/perf.exe -- --seed S [--json OUT] [--trace DIR]
     dune exec bench/perf/perf.exe -- --workload NAME --seed S [--seconds T]
     dune exec bench/perf/perf.exe -- compare OLD.json... -- NEW.json...

   Without --workload, every workload runs in its own child process (so
   peak RSS belongs to one workload), one after another.  A workload
   sets itself up, computes its correctness oracle, runs timed rounds
   untraced and, with --trace, one traced round whose spans give the
   per-layer breakdown.  The last line of stdout is one JSON object:
   correct, attempted, failed and every metric with its unit. *)

module J = Sutil.Json

let process_start = Span.now ()

type opts = {
  seed : int64;
  quick : bool;
  corrupt : bool;
  seconds : float option;
  trace : string option;
  json : string option;
  workdir : string option;
}

(* ------------------------------------------------------------------ *)
(* Host *)

let read_lines path f =
  try In_channel.with_open_text path (fun ic -> f (In_channel.input_lines ic))
  with Sys_error _ -> None

let peak_rss_mb () =
  read_lines "/proc/self/status"
    (List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)))
  |> Option.value ~default:nan

let cpu_model () =
  read_lines "/proc/cpuinfo"
    (List.find_map (fun l ->
         match String.index_opt l ':' with
         | Some i when String.starts_with ~prefix:"model name" l ->
             Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
         | _ -> None))
  |> Option.value ~default:"unknown"

let host () =
  J.Obj
    [
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("cpu", J.String (cpu_model ()));
      ("ocaml", J.String Sys.ocaml_version);
    ]

(* ------------------------------------------------------------------ *)
(* Timed rounds *)

type round = {
  secs : float;
  units : int;
  ops : int;
  instrs : float;
  alloc_mb : float;
  minor : int;
  major : int;
}

let gc_snapshot () =
  let s = Gc.quick_stat () in
  ( (s.minor_words +. s.major_words -. s.promoted_words)
    *. float_of_int (Sys.word_size / 8) /. 1e6,
    s.minor_collections,
    s.major_collections )

(* One round repeats the unit until the target, stopping where one more
   unit would overshoot it by more than stopping undershoots it.  The
   oracle checks run after the clock stops. *)
let round (p : Workload.prepared) ~target =
  let a0, mi0, ma0 = gc_snapshot () in
  let t0 = Span.now () in
  let pending = ref [] and units = ref 0 in
  while
    !units = 0
    ||
    let e = Span.secs_since t0 in
    e +. (e /. float_of_int !units /. 2.) < target
  do
    pending := p.run_unit () :: !pending;
    incr units
  done;
  let secs = Span.secs_since t0 in
  let a1, mi1, ma1 = gc_snapshot () in
  let checks = List.rev_map (fun check -> check ()) !pending in
  let instrs (c : Workload.checked) = Option.value ~default:0. (List.assoc_opt "instrs" c.values) in
  ( {
      secs;
      units = !units;
      ops = List.fold_left (fun a (c : Workload.checked) -> a + c.ops) 0 checks;
      instrs = List.fold_left (fun a c -> a +. instrs c) 0. checks;
      alloc_mb = a1 -. a0;
      minor = mi1 - mi0;
      major = ma1 - ma0;
    },
    checks )

(* ------------------------------------------------------------------ *)
(* The traced round *)

let layers_of_spans spans ~wall_ms ~width =
  let named n = List.filter (fun (s : Span.t) -> s.name = n) spans in
  let total n = Stat.sum (List.map Span.duration_ms (named n)) in
  let count n = float_of_int (List.length (named n)) in
  let pct name = function
    | [] -> [ (name ^ ".p50", 0.) ]
    | xs -> List.map (fun (p, v) -> (name ^ "." ^ p, v)) (Stat.tail_percentiles xs)
  in
  let jobs = named "sched.job" in
  let busy = Stat.sum (List.map Span.duration_ms jobs) in
  let sessions kind =
    let xs = List.map Span.duration_ms (named ("server.session." ^ kind)) in
    let name = "server.session_ms." ^ kind in
    pct name xs @ [ (name ^ ".count", float_of_int (List.length xs)) ]
  in
  let prepares = named "machine.prepare" in
  List.map
    (fun n -> (n ^ "_ms", total n))
    [
      "minic.progen"; "minic.parse"; "minic.lower"; "core.harden"; "core.runtime_install";
      "analysis.validate"; "machine.prepare"; "engine.compile"; "engine.run"; "store.key";
      "store.find"; "store.put"; "server.tenant_prepare"; "server.traffic"; "server.admit";
      "server.metrics";
    ]
  @ [
      ("machine.prepare_count", count "machine.prepare");
      ( "machine.prepare_alloc_mb",
        if prepares = [] then 0.
        else
          Stat.sum (List.map (fun (s : Span.t) -> s.alloc_bytes) prepares)
          /. float_of_int (List.length prepares) /. 1e6 );
      ("store.find_count", count "store.find");
      ("store.put_count", count "store.put");
      ("sched.jobs", count "sched.job");
      ("sched.busy_ms", busy);
      ("sched.utilization", if jobs = [] then 0. else busy /. (float_of_int width *. wall_ms));
      ("trace.spans", float_of_int (List.length spans));
    ]
  @ pct "sched.queue_wait_ms"
      (List.filter_map (fun (s : Span.t) -> Option.map Span.ms_of_ns s.wait_ns) jobs)
  @ sessions "benign" @ sessions "attack" @ sessions "chaos"

(* Self time per layer, the span name's first component. *)
let self_by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((s : Span.t), ms) ->
      let layer = List.hd (String.split_on_char '.' s.name) in
      Hashtbl.replace tbl layer (ms +. Option.value ~default:0. (Hashtbl.find_opt tbl layer)))
    (Span.self_ms spans);
  List.sort (fun (_, a) (_, b) -> Float.compare b a) (List.of_seq (Hashtbl.to_seq tbl))

type traced = {
  t_layers : (string * float) list;
  self : (string * float) list;
  t_notes : string list;
}

let traced_round (p : Workload.prepared) ~pool ~width ~dir ~wname ~untraced ~unit_ms =
  ignore (Span.collect ());
  let s0 = Sched.Pool.stats pool in
  let t0 = Span.now () in
  let (c : Workload.checked), counts = p.traced () in
  let wall_ms = Span.secs_since t0 *. 1e3 in
  let spans = Span.collect () in
  let s1 = Sched.Pool.stats pool in
  Workload.mkdir_p dir;
  Span.write_jsonl (Filename.concat dir (wname ^ ".jsonl")) ~origin:t0 spans;
  (* duplicate spans are work the untraced round does not do *)
  let dup_wall = Span.dup_ms spans /. float_of_int width in
  let top_dup = Span.dup_ms (List.filter (fun (s : Span.t) -> s.parent = None) spans) in
  let covered = Span.covered_ms spans in
  let coverage = covered /. (wall_ms -. top_dup) *. 100. in
  let from_spans = layers_of_spans spans ~wall_ms ~width in
  let engine_ms = List.assoc "engine.run_ms" from_spans in
  let instrs = Option.value ~default:0. (List.assoc_opt "engine.instrs" counts) in
  let notes =
    (if c.observable <> untraced then
       [
         Printf.sprintf "traced round differs from the untraced rounds: %s vs %s" c.observable
           untraced;
       ]
     else [])
    @
    (* a few milliseconds of timer and GC noise are not a gap *)
    if coverage < 90. && wall_ms -. top_dup -. covered > 5. then
      [ Printf.sprintf "traced spans cover %.1f%% of the traced round (< 90%%)" coverage ]
    else []
  in
  {
    t_layers =
      from_spans @ counts
      @ [
          ("engine.mips", if engine_ms > 0. then instrs /. engine_ms /. 1e3 else 0.);
          ("sched.retries", float_of_int (s1.retries - s0.retries));
          ("sched.timeouts", float_of_int (s1.timeouts - s0.timeouts));
          ("trace.overhead_pct", (wall_ms -. dup_wall -. unit_ms) /. unit_ms *. 100.);
          ("trace.coverage_pct", coverage);
        ];
    self = self_by_layer spans;
    t_notes = notes;
  }

(* ------------------------------------------------------------------ *)
(* One workload, in this process *)

type result = {
  workload : Workload.t;
  correct : bool;
  attempted : int;
  failed : int;
  notes : string list;
  rounds : round list;
  e2e : (string * float list) list;  (** samples per metric *)
  layers : (string * float) list;  (** [] without --trace *)
  self : (string * float) list;
}

(* Run [f] in a forked child and return its result.  OCaml forbids
   fork once other domains run, so this happens before the pool exists. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (match f () with
      | v -> Marshal.to_channel oc (Ok v) []
      | exception e -> Marshal.to_channel oc (Error (Printexc.to_string e)) []);
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Marshal.from_channel ic with End_of_file -> Error "no result" in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match v with Ok v -> v | Error e -> failwith ("perf: the oracle failed: " ^ e))

let measure opts w =
  let (Workload.W spec) = w in
  let width = if spec.name = "run-corpus" then 1 else 2 in
  let workdir =
    match opts.workdir with
    | Some d ->
        let d = Filename.concat d (Printf.sprintf "%s-%d" spec.name (Unix.getpid ())) in
        Workload.mkdir_p d;
        d
    | None -> Filename.temp_dir "perf-" ""
  in
  let ctx pool =
    { Workload.seed = opts.seed; quick = opts.quick; corrupt = opts.corrupt; workdir; pool }
  in
  (* the oracle's time and memory stay out of this process's numbers *)
  let expected, oracle_s =
    Span.timed (fun () ->
        in_child (fun () -> Sched.Pool.with_pool ~jobs:width (fun p -> spec.oracle (ctx p))))
  in
  let pool = Sched.Pool.create ~jobs:width () in
  let ctx = ctx pool in
  Fun.protect ~finally:(fun () ->
      Sched.Pool.close pool;
      Workload.rm_rf workdir)
  @@ fun () ->
  (* set-up, repeated; the first repetition counts from process start,
     less the oracle's time *)
  let setups =
    List.init (if opts.quick then 1 else 3) (fun k ->
        let t0 = Span.now () in
        let f = spec.setup ctx in
        (f, if k = 0 then Span.secs_since process_start -. oracle_s else Span.secs_since t0))
  in
  let prepared = spec.prepare ctx expected (fst (List.hd (List.rev setups))) in
  let nrounds = if opts.quick then 1 else spec.rounds in
  let seconds =
    match opts.seconds with
    | Some s -> s
    | None -> if opts.quick then 0. else 1.5 *. float_of_int nrounds
  in
  let rounds, checks =
    List.split
      (List.init nrounds (fun _ -> round prepared ~target:(seconds /. float_of_int nrounds)))
  in
  let checks = List.concat checks in
  let peak_rss = peak_rss_mb () in
  let first = List.hd checks in
  let sumc f = List.fold_left (fun a c -> a + f c) 0 checks in
  let attempted = sumc (fun (c : Workload.checked) -> c.ops) in
  let failed = sumc (fun (c : Workload.checked) -> c.failed) in
  let notes =
    List.concat_map (fun (c : Workload.checked) -> c.notes) checks
    @
    if List.exists (fun (c : Workload.checked) -> c.observable <> first.observable) checks then
      [ "units of one run disagree: the workload is not deterministic" ]
    else []
  in
  let value k = List.assoc_opt k first.values in
  let traced =
    Option.map
      (fun dir ->
        traced_round prepared ~pool ~width ~dir ~wname:spec.name ~untraced:first.observable
          ~unit_ms:(Sutil.Stats.median (List.map (fun r -> r.secs *. 1e3 /. float_of_int r.units) rounds)))
      opts.trace
  in
  let per_unit f = Sutil.Stats.median (List.map (fun r -> f r /. float_of_int r.units) rounds) in
  let layers =
    match traced with
    | None -> []
    | Some t ->
        let raw =
          t.t_layers
          @ List.filter (fun (k, _) -> String.contains k '.') first.values
          @ [
              ("core.vm_overhead_pct", Option.value ~default:0. (value "vm_overhead_pct"));
              ("server.p99_mcycles", Option.value ~default:0. (value "serve_p99_mcycles"));
              ("gc.alloc_mb", per_unit (fun r -> r.alloc_mb));
              ("gc.minor_collections", per_unit (fun r -> float_of_int r.minor));
              ("gc.major_collections", per_unit (fun r -> float_of_int r.major));
            ]
        in
        List.map
          (fun (n, _, _) -> (n, Option.value ~default:0. (List.assoc_opt n raw)))
          Catalogue.layers
        @ List.filter (fun (n, _) -> not (List.exists (fun (m, _, _) -> m = n) Catalogue.layers)) raw
  in
  let rate f = List.map (fun r -> f r /. r.secs) rounds in
  let e2e =
    [
      ("setup_s", List.map snd setups);
      ("peak_rss_mb", [ peak_rss ]);
      ("ops_per_s", rate (fun r -> float_of_int r.ops));
      ("error_rate", [ float_of_int failed /. float_of_int (max 1 attempted) ]);
    ]
    @ (if value "instrs" = None then [] else [ ("exec_mips", rate (fun r -> r.instrs /. 1e6)) ])
    @ List.filter_map
        (fun n -> Option.map (fun v -> (n, [ v ])) (value n))
        [ "vm_overhead_pct"; "pbox_kb"; "serve_p99_mcycles" ]
  in
  let notes = notes @ match traced with Some t -> t.t_notes | None -> [] in
  {
    workload = w;
    correct = failed = 0 && notes = [];
    attempted;
    failed;
    notes;
    rounds;
    e2e;
    layers;
    self = (match traced with Some t -> t.self | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* Output *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let e2e_unit n = match Catalogue.find_e2e n with Some m -> m.unit_ | None -> ""

let table columns rows =
  let t = Sutil.Texttable.create ~columns in
  List.iter (Sutil.Texttable.add_row t) rows;
  print_string (Sutil.Texttable.render t)

let print_report opts r =
  let open Sutil.Texttable in
  Printf.printf "== %s (seed %Ld%s): %s\n" (Workload.name r.workload) opts.seed
    (if opts.quick then ", quick" else "")
    (Workload.why r.workload);
  table
    [ ("metric", Left); ("median", Right); ("unit", Left); ("q1", Right); ("q3", Right); ("n", Right) ]
    (List.map
       (fun (n, vs) ->
         let q1, med, q3 = Stat.quartiles vs in
         [ n; fmt_value med; e2e_unit n; fmt_value q1; fmt_value q3; string_of_int (List.length vs) ])
       r.e2e);
  Printf.printf "attempted %d, failed %d, correct %b\n" r.attempted r.failed r.correct;
  List.iter (Printf.printf "  ! %s\n") r.notes;
  if r.layers <> [] then begin
    table
      [ ("layer metric", Left); ("value", Right); ("unit", Left) ]
      (List.map (fun (n, v) -> [ n; fmt_value v; Catalogue.layer_unit n ]) r.layers);
    let total = Stat.sum (List.map snd r.self) in
    table
      [ ("layer", Left); ("self ms", Right); ("share", Right) ]
      (List.map
         (fun (l, ms) -> [ l; Printf.sprintf "%.1f" ms; Printf.sprintf "%.1f%%" (ms /. total *. 100.) ])
         r.self)
  end

let metric_json ?q unit_ value =
  J.Obj
    ([ ("value", J.Float value); ("unit", J.String unit_) ]
    @
    match q with
    | Some (q1, q3, n) -> [ ("q1", J.Float q1); ("q3", J.Float q3); ("n", J.Int n) ]
    | None -> [])

let layers_json r =
  J.Obj (List.map (fun (n, v) -> (n, metric_json (Catalogue.layer_unit n) v)) r.layers)

(* every round, quartile and layer metric *)
let full_json opts r =
  J.Obj
    ([
       ("workload", J.String (Workload.name r.workload));
       ("why", J.String (Workload.why r.workload));
       ("seed", J.String (Int64.to_string opts.seed));
       ("quick", J.Bool opts.quick);
       ("host", host ());
       ("correct", J.Bool r.correct);
       ("attempted", J.Int r.attempted);
       ("failed", J.Int r.failed);
       ("notes", J.List (List.map (fun s -> J.String s) r.notes));
       ( "rounds",
         J.List
           (List.map
              (fun x ->
                J.Obj
                  [
                    ("secs", J.Float x.secs); ("units", J.Int x.units); ("ops", J.Int x.ops);
                    ("instrs", J.Float x.instrs); ("alloc_mb", J.Float x.alloc_mb);
                    ("minor_collections", J.Int x.minor); ("major_collections", J.Int x.major);
                  ])
              r.rounds) );
       ( "metrics",
         J.Obj
           (List.map
              (fun (n, vs) ->
                let q1, med, q3 = Stat.quartiles vs in
                (n, metric_json ~q:(q1, q3, List.length vs) (e2e_unit n) med))
              r.e2e) );
     ]
    @
    if r.layers = [] then []
    else
      [ ("layers", layers_json r); ("self_ms", J.Obj (List.map (fun (l, ms) -> (l, J.Float ms)) r.self)) ])

(* the last line of stdout *)
let result_line r =
  J.Obj
    ([
       ("correct", J.Bool r.correct);
       ("attempted", J.Int r.attempted);
       ("failed", J.Int r.failed);
       ( "metrics",
         J.Obj (List.map (fun (n, vs) -> (n, metric_json (e2e_unit n) (Sutil.Stats.median vs))) r.e2e) );
     ]
    @ if r.layers = [] then [] else [ ("layers", layers_json r) ])

let write_json path doc = Out_channel.with_open_text path (fun oc -> J.doc_to_channel oc doc)

let run_one opts w =
  let r = measure opts w in
  print_report opts r;
  Option.iter (fun path -> write_json path (full_json opts r)) opts.json;
  print_endline (J.to_string (result_line r));
  r.correct

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process *)

let run_all opts =
  let dir = match opts.workdir with Some d -> d | None -> Filename.temp_dir "perf-all-" "" in
  Workload.mkdir_p dir;
  let child w =
    let name = Workload.name w in
    let json = Filename.concat dir (name ^ ".json") in
    let args =
      [ Sys.executable_name; "--workload"; name; "--seed"; Int64.to_string opts.seed;
        "--json"; json; "--workdir"; dir ]
      @ (if opts.quick then [ "--quick" ] else [])
      @ (if opts.corrupt then [ "--corrupt-oracle" ] else [])
      @ (match opts.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
      @ match opts.trace with Some t -> [ "--trace"; t ] | None -> []
    in
    flush stdout;
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
        Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED (0 | 1) when Sys.file_exists json ->
        let doc = J.of_string_exn (In_channel.with_open_text json In_channel.input_all) in
        Sys.remove json;
        (name, doc)
    | _ -> failwith (Printf.sprintf "perf: workload %s did not finish" name)
  in
  let results = List.map child Workload.all in
  if opts.workdir = None then Workload.rm_rf dir;
  let get k d = Option.value ~default:J.Null (J.member k d) in
  let correct = List.for_all (fun (_, d) -> get "correct" d = J.Bool true) results in
  let sum k =
    List.fold_left (fun a (_, d) -> a + Option.value ~default:0 (J.to_int_opt (get k d))) 0 results
  in
  Option.iter
    (fun path ->
      write_json path
        (J.Obj
           [
             ("seed", J.String (Int64.to_string opts.seed));
             ("host", host ());
             ("workloads", J.List (List.map snd results));
           ]))
    opts.json;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int (sum "attempted"));
            ("failed", J.Int (sum "failed"));
            ("workloads", J.Obj (List.map (fun (n, d) -> (n, get "metrics" d)) results));
          ]));
  correct

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage =
  "usage: perf.exe [--workload NAME] [--seed S] [--seconds T] [--json OUT] [--trace DIR] \
   [--quick]\n\
  \       perf.exe compare OLD.json... -- NEW.json...\n\
   workloads: "
  ^ String.concat ", " (List.map Workload.name Workload.all)
  ^ "\n"

let usage_error msg =
  prerr_string (msg ^ "\n" ^ usage);
  exit 2

let () =
  Engine.Backend.install ();
  Analysis.Validate.install ();
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest -> (
      let rec split acc = function
        | "--" :: news -> (List.rev acc, news)
        | x :: tl -> split (x :: acc) tl
        | [] -> (List.rev acc, [])
      in
      match split [] rest with
      | (_ :: _ as olds), (_ :: _ as news) -> exit (Compare.main olds news)
      | _ -> usage_error "perf: compare needs files on both sides of --")
  | _ ->
      let workload = ref None and seed = ref 1L and seconds = ref None and json = ref None in
      let trace = ref None and quick = ref false and corrupt = ref false and workdir = ref None in
      let spec =
        [
          ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload in this process");
          ( "--seed",
            Arg.String
              (fun s ->
                match Int64.of_string_opt s with
                | Some v -> seed := v
                | None -> raise (Arg.Bad "--seed takes an integer")),
            "S seed of every generated input (default 1)" );
          ( "--seconds",
            Arg.Float
              (fun s -> if s >= 0. then seconds := Some s else raise (Arg.Bad "--seconds must be >= 0")),
            "T timed seconds per workload (default 1.5 per round)" );
          ("--json", Arg.String (fun s -> json := Some s), "OUT write every round, quartile and layer metric");
          ("--trace", Arg.String (fun s -> trace := Some s), "DIR add a traced round; spans go to DIR/<workload>.jsonl");
          ("--quick", Arg.Set quick, " one round of one unit on small inputs (the smoke test)");
          ("--corrupt-oracle", Arg.Set corrupt, " corrupt the expected outputs (tests the error path)");
          ("--workdir", Arg.String (fun s -> workdir := Some s), "DIR where stores and temporaries go (default: a temp dir)");
        ]
      in
      (try
         Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
       with
      | Arg.Help msg ->
          print_string msg;
          exit 0
      | Arg.Bad msg ->
          prerr_string msg;
          exit 2);
      let opts =
        {
          seed = !seed;
          quick = !quick;
          corrupt = !corrupt;
          seconds = !seconds;
          trace = !trace;
          json = !json;
          workdir = !workdir;
        }
      in
      let ok =
        match !workload with
        | None -> run_all opts
        | Some n -> (
            match Workload.find n with
            | Some w -> run_one opts w
            | None -> usage_error ("perf: unknown workload " ^ n))
      in
      exit (if ok then 0 else 1)

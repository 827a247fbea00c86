type cell = {
  attack_name : string;
  defense : Defenses.Defense.t;
  verdicts : Attacks.Verdict.t list;
  success_rate : float;
}

type t = { title : string; cells : cell list }

let trials ?(pool = Sched.Pool.sequential) attack applied ~n ~seed0 =
  Sched.Pool.run_all pool
    (List.init n (fun i ->
         let seed = Int64.of_int (seed0 + (1000 * i)) in
         Sched.Job.v ~id:(Printf.sprintf "trial/%d" i) ~seed (fun () ->
             attack applied ~seed)))

let mk_cell attack_name defense verdicts =
  {
    attack_name;
    defense;
    verdicts;
    success_rate = Attacks.Verdict.success_rate verdicts;
  }

(* The build-time seed every experiment applies its defenses with. *)
let build_seed = 3L

(* One job per (attack, defense) cell: the job builds its own applied
   program (a fresh Ir.Prog copy) and runs its trials, so nothing is
   shared between jobs but the read-only source program, pre-forced in
   the submitting domain. *)
let pentest ?(pool = Sched.Pool.sequential) ~backend ?(trials_per_cell = 12) () =
  let cells =
    Sched.Pool.run_all pool
      (List.concat_map
         (fun (v : Apps.Synth.variant) ->
           let prog = Lazy.force v.program in
           List.map
             (fun d ->
               Sched.Job.v
                 ~id:
                   (Printf.sprintf "e5/%s/%s" v.vname (Defenses.Defense.name d))
                 ~seed:build_seed
                 (fun () ->
                   let applied = Defenses.Defense.apply ~seed:build_seed d prog in
                   mk_cell v.vname d
                     (trials
                        (fun a ~seed -> (v.attack ~backend a ~seed).verdict)
                        applied ~n:trials_per_cell ~seed0:17)))
             Defenses.Defense.all)
         Apps.Synth.variants)
  in
  { title = "E5: synthetic DOP penetration tests (success rate per attempt)"; cells }

let bypass_prior ?(pool = Sched.Pool.sequential) ~backend
    ?(trials_per_cell = 12) () =
  let prog = Lazy.force Apps.Librelp.program in
  let strategies =
    [
      ( "librelp/static-analysis",
        fun a ~seed -> (Apps.Librelp.attack_static ~backend a ~seed).verdict );
      ("librelp/disclosure", Apps.Librelp.attack_disclosure ~backend);
    ]
  in
  let cells =
    Sched.Pool.run_all pool
      (List.concat_map
         (fun (name, attack) ->
           List.map
             (fun d ->
               Sched.Job.v
                 ~id:(Printf.sprintf "e4/%s/%s" name (Defenses.Defense.name d))
                 ~seed:build_seed
                 (fun () ->
                   (* per-build randomization: every trial gets a fresh
                      build, so the rate reads "fraction of builds
                      exploitable" *)
                   let per_build =
                     match d with
                     | Defenses.Defense.Forrest_pad | Defenses.Defense.Static_perm
                       ->
                         true
                     | _ -> false
                   in
                   let verdicts =
                     if per_build then
                       List.init 12 (fun b ->
                           let applied =
                             Defenses.Defense.apply
                               ~seed:(Int64.of_int (100 + b))
                               d prog
                           in
                           attack applied ~seed:(Int64.of_int (17 + (1000 * b))))
                     else
                       let applied = Defenses.Defense.apply ~seed:build_seed d prog in
                       trials attack applied ~n:trials_per_cell ~seed0:17
                   in
                   mk_cell name d verdicts))
             Defenses.Defense.all)
         strategies)
  in
  { title = "E4: librelp CVE-2018-1000140 vs prior stack randomizations"; cells }

let realvuln ?(pool = Sched.Pool.sequential) ~backend ?(trials_per_cell = 12) () =
  (* Programs are forced here, in the submitting domain, so the jobs
     only ever read them. *)
  let attacks =
    [
      ( "librelp/key-leak",
        Lazy.force Apps.Librelp.program,
        Apps.Librelp.attack_static );
      ("wireshark/CVE-2014-2299", Lazy.force Apps.Wireshark.program, Apps.Wireshark.attack);
      ( "proftpd/key-extraction",
        Lazy.force Apps.Proftpd.program,
        Apps.Proftpd.attack_key_extraction );
      ("proftpd/bot", Lazy.force Apps.Proftpd.program, Apps.Proftpd.attack_bot);
      ( "proftpd/mem-permissions",
        Lazy.force Apps.Proftpd.program,
        Apps.Proftpd.attack_memperm );
    ]
  in
  let cells =
    Sched.Pool.run_all pool
      (List.concat_map
         (fun (name, prog, (attack : Apps.Dopkit.attack)) ->
           List.map
             (fun d ->
               Sched.Job.v
                 ~id:(Printf.sprintf "e6/%s/%s" name (Defenses.Defense.name d))
                 ~seed:build_seed
                 (fun () ->
                   let applied = Defenses.Defense.apply ~seed:build_seed d prog in
                   mk_cell name d
                     (trials
                        (fun a ~seed -> (attack ~backend a ~seed).verdict)
                        applied ~n:trials_per_cell ~seed0:29)))
             [
               Defenses.Defense.No_defense;
               Defenses.Defense.Smokestack Smokestack.Config.default;
             ])
         attacks)
  in
  { title = "E6: real-vulnerability DOP exploits, undefended vs Smokestack"; cells }

let rng_security ?(pool = Sched.Pool.sequential) ~backend
    ?(trials_per_cell = 12) () =
  let prog = Lazy.force Apps.Librelp.program in
  let cells =
    Sched.Pool.run_all pool
      (List.map
         (fun scheme ->
           Sched.Job.v ~id:("e10/" ^ Rng.Scheme.name scheme) ~seed:build_seed
             (fun () ->
               let config =
                 Smokestack.Config.with_scheme scheme Smokestack.Config.default
               in
               let d = Defenses.Defense.Smokestack config in
               let applied = Defenses.Defense.apply ~seed:build_seed d prog in
               mk_cell "librelp/state-disclosure" d
                 (trials (Apps.Librelp.attack_pseudo_state ~backend) applied
                    ~n:trials_per_cell ~seed0:61)))
         Rng.Scheme.all)
  in
  {
    title =
      "E10: state-disclosure prediction vs randomness scheme (Table I's \
       security column, executed)";
    cells;
  }

type rerand_row = { interval : int; rr_success_rate : float }

let rerandomization ?(pool = Sched.Pool.sequential) ~backend
    ?(trials_per_cell = 12) () =
  let prog = Lazy.force Apps.Librelp.program in
  Sched.Pool.run_all pool
    (List.map
       (fun interval ->
         Sched.Job.v ~id:(Printf.sprintf "e11/interval-%d" interval) ~seed:build_seed
           (fun () ->
             let config =
               { Smokestack.Config.default with redraw_interval = interval }
             in
             let applied =
               Defenses.Defense.apply ~seed:build_seed
                 (Defenses.Defense.Smokestack config)
                 prog
             in
             let verdicts =
               trials (Apps.Librelp.attack_probe_then_exploit ~backend) applied
                 ~n:trials_per_cell ~seed0:83
             in
             { interval; rr_success_rate = Attacks.Verdict.success_rate verdicts }))
       [ 1; 8; 64 ])

let rerand_table rows =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        [
          ("redraw interval (requests)", Sutil.Texttable.Right);
          ("probe-then-exploit success", Sutil.Texttable.Right);
        ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          string_of_int r.interval;
          Printf.sprintf "%.0f%%" (r.rr_success_rate *. 100.);
        ])
    rows;
  tbl

type brute_row = {
  bdefense : Defenses.Defense.t;
  attempts_to_success : int option;
  budget : int;
  detected_along_the_way : int;
}

let brute ?(pool = Sched.Pool.sequential) ~backend ?(max_attempts = 400) () =
  let prog = Lazy.force Apps.Librelp.program in
  Sched.Pool.run_all pool
    (List.map
       (fun d ->
         Sched.Job.v ~id:("e9/" ^ Defenses.Defense.name d) ~seed:build_seed
           (fun () ->
             let applied = Defenses.Defense.apply ~seed:build_seed d prog in
             let result =
               Attacks.Bruteforce.run ~seed0:5000 ~max_attempts (fun seed ->
                   (Apps.Librelp.attack_static ~backend applied
                      ~seed:(Int64.of_int seed))
                     .verdict)
             in
             {
               bdefense = d;
               attempts_to_success =
                 Attacks.Bruteforce.attempts_to_success result.verdicts;
               budget = max_attempts;
               detected_along_the_way =
                 List.length
                   (List.filter
                      (function Attacks.Verdict.Detected _ -> true | _ -> false)
                      result.verdicts);
             }))
       Defenses.Defense.all)

let table t =
  let names = List.sort_uniq compare (List.map (fun c -> c.attack_name) t.cells) in
  let ds = List.sort_uniq compare (List.map (fun c -> c.defense) t.cells) in
  let tbl =
    Sutil.Texttable.create
      ~columns:
        (("attack", Sutil.Texttable.Left)
        :: List.map (fun d -> (Defenses.Defense.name d, Sutil.Texttable.Right)) ds)
  in
  List.iter
    (fun name ->
      Sutil.Texttable.add_row tbl
        (name
        :: List.map
             (fun d ->
               match
                 List.find_opt
                   (fun c -> c.attack_name = name && c.defense = d)
                   t.cells
               with
               | Some c -> Printf.sprintf "%.0f%%" (c.success_rate *. 100.)
               | None -> "-")
             ds))
    names;
  tbl

let brute_table rows =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        [
          ("defense", Sutil.Texttable.Left);
          ("attempts to success", Sutil.Texttable.Right);
          ("detections en route", Sutil.Texttable.Right);
        ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          Defenses.Defense.name r.bdefense;
          (match r.attempts_to_success with
          | Some n -> string_of_int n
          | None -> Printf.sprintf "> %d (gave up)" r.budget);
          string_of_int r.detected_along_the_way;
        ])
    rows;
  tbl

type synth_row = {
  tname : string;
  static_pairs : int;
  gadget_count : int;
  flip_count : int;
  probes_run : int;
  learned_count : int;
  chain_count : int;
}

type chain_row = {
  ctname : string;
  chain : Dopc.Chain.t;
  cells : (string * Attacks.Verdict.t list) list;
}

type entropy_row = {
  etname : string;
  ekind : string;
  attempts : int option;
  ebudget : int;
}

type feedback_row = {
  ftname : string;
  fchain_id : string;
  ffamily : string;
  fpairs : int;
  fgrounded : bool;
}

type t = {
  srows : synth_row list;
  crows : chain_row list;
  erows : entropy_row list;
  frows : feedback_row list;
  trials : int;
  landed_unhardened : int;
  full_successes : int;
  all_grounded : bool;
}

let defense_names = [ "none"; "smokestack-selective"; "smokestack-full" ]

let defenses () =
  [
    ("none", Defenses.Defense.No_defense);
    ( "smokestack-selective",
      Defenses.Defense.Smokestack
        (Smokestack.Config.with_selective true Smokestack.Config.default) );
    ("smokestack-full", Defenses.Defense.Smokestack Smokestack.Config.default);
  ]

let config_of = function
  | Defenses.Defense.Smokestack c -> Some c
  | _ -> None

(* One target = one program the planner attacks.  The hand-written
   attack (when the corpus has one for this exact program) anchors the
   entropy comparison. *)
type target = {
  name : string;
  source : string;
  program : Ir.Prog.t Lazy.t;
  hand : Apps.Dopkit.attack option;
}

let io_workloads = [ "proftpd-io"; "wireshark-io" ]

let builtin_targets () =
  List.map
    (fun (v : Apps.Synth.variant) ->
      {
        name = v.vname;
        source = v.source;
        program = v.program;
        hand = Some v.attack;
      })
    Apps.Synth.variants
  @ List.filter_map
      (fun n ->
        Option.map
          (fun (w : Apps.Spec.workload) ->
            { name = w.wname; source = w.source; program = w.program;
              hand = None })
          (Apps.Spec.find n))
      io_workloads

let available_workloads () = List.map (fun t -> t.name) (builtin_targets ())

let has_success = List.exists (( = ) Attacks.Verdict.Success)

let run ?(pool = Sched.Pool.sequential) ~backend ?store ?(trials = 6)
    ?(brute_budget = 600) ?(max_chains = 8) ?workloads ?(progen = 0) () =
  (* the elision oracle behind Config.selective lives in lib/analysis *)
  Analysis.Validate.install ();
  let targets =
    let builtins = builtin_targets () in
    let selected =
      match workloads with
      | None -> builtins
      | Some names ->
          List.filter_map
            (fun n -> List.find_opt (fun t -> t.name = n) builtins)
            names
    in
    selected
    @ List.map
        (fun (pseed, psource) ->
          {
            name = Printf.sprintf "progen-%Ld" pseed;
            source = psource;
            program = lazy (Minic.Driver.compile psource);
            hand = None;
          })
        (List.of_seq (Minic.Progen.range ~seed:9001L progen))
  in
  let results =
    Sched.Pool.run_all pool
      (List.map
         (fun tgt ->
           Sched.Job.v ~id:("offense/" ^ tgt.name) ~seed:3L (fun () ->
               let prog = Lazy.force tgt.program in
               let model, chains =
                 Dopc.Plan.synthesize ~max_chains ~target:tgt.name prog
               in
               let srow =
                 {
                   tname = tgt.name;
                   static_pairs = List.length model.pairs;
                   gadget_count = List.length model.gadgets;
                   flip_count = List.length model.flips;
                   probes_run = model.probes_run;
                   learned_count = List.length model.learned;
                   chain_count = List.length chains;
                 }
               in
               let applied_of =
                 List.map
                   (fun (dn, d) ->
                     (dn, (d, lazy (Defenses.Defense.apply ~seed:3L d prog))))
                   (defenses ())
               in
               let crows =
                 List.map
                   (fun (chain : Dopc.Chain.t) ->
                     let cells =
                       List.map
                         (fun (dn, (d, applied)) ->
                           ( dn,
                             Crossval.cached_verdicts ?store ~backend
                               ~source:tgt.source ~config:(config_of d)
                               ~extra:
                                 (Printf.sprintf
                                    "offense;chain=%s;defense=%s;trials=%d;seed0=17;hseed=3"
                                    chain.chain_id dn trials)
                               (fun () ->
                                 Dopc.Exec.trials ~backend (Lazy.force applied)
                                   chain ~n:trials ~seed0:17) ))
                         applied_of
                     in
                     { ctname = tgt.name; chain; cells })
                   chains
               in
               let landed (r : chain_row) =
                 match List.assoc_opt "none" r.cells with
                 | Some vs -> has_success vs
                 | None -> false
               in
               (* entropy: the first landing chain with a semantically
                  checkable goal, brute forced against full hardening,
                  next to the hand-written corpus number.  The weak
                  output-differs witness is excluded — its payload
                  bytes vary with the layout guess, so "differs" would
                  measure the guess, not the exploit. *)
               let full_d, full_applied =
                 List.assoc "smokestack-full" applied_of
               in
               let erows =
                 match
                   List.find_opt
                     (fun r -> Dopc.Chain.strong_goal r.chain && landed r)
                     crows
                 with
                 | None -> []
                 | Some r ->
                     let synth_verdicts =
                       Crossval.cached_verdicts ?store ~backend
                         ~source:tgt.source ~config:(config_of full_d)
                         ~extra:
                           (Printf.sprintf
                              "offense;brute;chain=%s;budget=%d;seed0=0;hseed=3"
                              r.chain.chain_id brute_budget)
                         (fun () ->
                           Dopc.Exec.brute ~backend (Lazy.force full_applied)
                             r.chain ~budget:brute_budget ~seed0:0)
                     in
                     let synth_row =
                       {
                         etname = tgt.name;
                         ekind =
                           Printf.sprintf "synthesized %s #%s"
                             (Dopc.Chain.family_to_string r.chain.family)
                             r.chain.chain_id;
                         attempts =
                           Attacks.Bruteforce.attempts_to_success
                             synth_verdicts;
                         ebudget = brute_budget;
                       }
                     in
                     let hand_rows =
                       match tgt.hand with
                       | None -> []
                       | Some attack ->
                           let verdicts =
                             Crossval.cached_verdicts ?store ~backend
                               ~source:tgt.source ~config:(config_of full_d)
                               ~extra:
                                 (Printf.sprintf
                                    "offense;brute-hand;budget=%d;seed0=0;hseed=3"
                                    brute_budget)
                               (fun () ->
                                 (* same seed walk as Dopc.Exec.brute, so
                                    the two columns compare like for like *)
                                 let applied = Lazy.force full_applied in
                                 (Attacks.Bruteforce.run
                                    ~max_attempts:brute_budget (fun seed ->
                                      (attack ~backend applied
                                         ~seed:(Int64.of_int seed))
                                        .verdict))
                                   .verdicts)
                           in
                           [
                             {
                               etname = tgt.name;
                               ekind = "hand-written";
                               attempts =
                                 Attacks.Bruteforce.attempts_to_success verdicts;
                               ebudget = brute_budget;
                             };
                           ]
                     in
                     synth_row :: hand_rows
               in
               (* grounding: a landing chain must be backed by static
                  pairs over its own buffer — the Crossval check, now
                  over machine-generated attacks *)
               let frows =
                 List.filter_map
                   (fun r ->
                     if not (landed r) then None
                     else
                       let grounded_pid pid =
                         List.exists
                           (fun (p : Analysis.Dop.pair) ->
                             p.pair_id = pid
                             && p.buf_func = r.chain.func
                             && p.buf_slot = r.chain.buffer)
                           model.pairs
                       in
                       Some
                         {
                           ftname = tgt.name;
                           fchain_id = r.chain.chain_id;
                           ffamily =
                             Dopc.Chain.family_to_string r.chain.family;
                           fpairs = List.length r.chain.pair_ids;
                           fgrounded =
                             r.chain.pair_ids <> []
                             && List.for_all grounded_pid r.chain.pair_ids;
                         })
                   crows
               in
               (srow, crows, erows, frows)))
         targets)
  in
  let srows = List.map (fun (s, _, _, _) -> s) results in
  let crows = List.concat_map (fun (_, c, _, _) -> c) results in
  let erows = List.concat_map (fun (_, _, e, _) -> e) results in
  let frows = List.concat_map (fun (_, _, _, f) -> f) results in
  let count col =
    List.length
      (List.filter
         (fun r ->
           match List.assoc_opt col r.cells with
           | Some vs -> has_success vs
           | None -> false)
         crows)
  in
  {
    srows;
    crows;
    erows;
    frows;
    trials;
    landed_unhardened = count "none";
    full_successes = count "smokestack-full";
    all_grounded = List.for_all (fun f -> f.fgrounded) frows;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let synth_table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("target", Left);
            ("pairs", Right);
            ("gadgets", Right);
            ("flips", Right);
            ("probes", Right);
            ("learned", Right);
            ("chains", Right);
          ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          r.tname;
          string_of_int r.static_pairs;
          string_of_int r.gadget_count;
          string_of_int r.flip_count;
          string_of_int r.probes_run;
          string_of_int r.learned_count;
          string_of_int r.chain_count;
        ])
    t.srows;
  tbl

let cell_str trials vs =
  let n = List.length (List.filter (( = ) Attacks.Verdict.Success) vs) in
  let d =
    List.length
      (List.filter
         (function Attacks.Verdict.Detected _ -> true | _ -> false)
         vs)
  in
  Printf.sprintf "%d/%d%s" n trials
    (if d > 0 then Printf.sprintf " (det %d)" d else "")

let chain_table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        (Sutil.Texttable.
           [ ("target", Left); ("chain", Left); ("goal", Left) ]
        @ List.map (fun d -> (d, Sutil.Texttable.Right)) defense_names)
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        ([
           r.ctname;
           Printf.sprintf "%s #%s"
             (Dopc.Chain.family_to_string r.chain.family)
             r.chain.chain_id;
           Dopc.Chain.goal_to_string r.chain.goal;
         ]
        @ List.map
            (fun d ->
              match List.assoc_opt d r.cells with
              | Some vs -> cell_str t.trials vs
              | None -> "-")
            defense_names))
    t.crows;
  tbl

let log2 x = log x /. log 2.

let entropy_table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("target", Left);
            ("attack", Left);
            ("attempts", Right);
            ("budget", Right);
            ("entropy (bits)", Right);
          ]
  in
  List.iter
    (fun r ->
      let attempts_s, bits_s =
        match r.attempts with
        | Some n ->
            (string_of_int n, Printf.sprintf "%.1f" (log2 (float_of_int n)))
        | None ->
            ( "budget exhausted",
              Printf.sprintf ">= %.1f" (log2 (float_of_int r.ebudget)) )
      in
      Sutil.Texttable.add_row tbl
        [ r.etname; r.ekind; attempts_s; string_of_int r.ebudget; bits_s ])
    t.erows;
  tbl

let feedback_table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("target", Left);
            ("landing chain", Left);
            ("static pairs", Right);
            ("grounded", Left);
          ]
  in
  List.iter
    (fun f ->
      Sutil.Texttable.add_row tbl
        [
          f.ftname;
          Printf.sprintf "%s #%s" f.ffamily f.fchain_id;
          string_of_int f.fpairs;
          (if f.fgrounded then "yes" else "NO");
        ])
    t.frows;
  tbl

let output t =
  [
    Output.table "offense_synth" "E17: automated DOP-attack compiler — synthesis summary"
      (synth_table t);
    Output.table "offense" "E17: per-chain survival (successes/trials per defense)"
      (chain_table t);
    Output.table "offense_entropy"
      "E17: brute-force entropy under full hardening, synthesized vs hand-written"
      (entropy_table t);
    Output.table "offense_feedback" "E17: static grounding of landing chains" (feedback_table t);
    Output.text
      "chains landing undefended: %d; full-hardening successes: %d; all landing chains \
       grounded: %b"
      t.landed_unhardened t.full_successes t.all_grounded;
  ]

type prog_row = {
  pname : string;
  static_leaks : int;
  static_bits : float;
  distinct_outputs : int;
  agree : bool;
}

type guided = {
  gtarget : string;
  gchain : string;
  blind_expected : float;
  degraded_expected : float;
  reach_factor : float;
  predicted : float;
  blind_attempts : int option;
  guided_attempts : int option list;
  guided_mean : float;
  within_bound : bool;
  gbudget : int;
}

type t = {
  rows : prog_row list;
  seeds : int;
  disagreements : int;
  guided : guided option;
}

(* ------------------------------------------------------------------ *)
(* Corpus *)

type entry = {
  ename : string;
  eprogram : Ir.Prog.t Lazy.t;
  echunks : string list;  (** input served to the dynamic runs *)
}

let spec_names = [ "gobmk"; "mcf"; "hmmer"; "proftpd-io"; "wireshark-io" ]

(* Progen programs of the corpus come from seeds 9001.., and every
   program runs under 8 entropy seeds. *)
let progen_seed = 9001L
let seeds = 8

let corpus ~progen ~leaky_progen =
  List.filter_map
    (fun n ->
      Option.map
        (fun (w : Apps.Spec.workload) ->
          {
            ename = w.wname;
            eprogram = w.program;
            echunks = Workbench.chunks_of_input w.input;
          })
        (Apps.Spec.find n))
    spec_names
  @ List.map
      (fun (v : Apps.Synth.variant) ->
        { ename = v.vname; eprogram = v.program; echunks = [] })
      Apps.Synth.variants
  @ List.filter_map
      (fun n ->
        Option.map
          (fun (v : Apps.Synth.variant) ->
            { ename = v.vname; eprogram = v.program; echunks = [] })
          (Apps.Synth.find n))
      [ "stack-leaky" ]
  @ List.init progen (fun i ->
        let pseed = Int64.add progen_seed (Int64.of_int i) in
        {
          ename = Printf.sprintf "progen-%Ld" pseed;
          eprogram = lazy (Minic.Driver.compile (Minic.Progen.generate ~seed:pseed));
          echunks = [];
        })
  @ List.init leaky_progen (fun i ->
        let pseed = Int64.add progen_seed (Int64.of_int i) in
        {
          ename = Printf.sprintf "progen-leaky-%Ld" pseed;
          eprogram =
            lazy (Minic.Driver.compile (Minic.Progen.generate_leaky ~seed:pseed));
          echunks = [];
        })

(* ------------------------------------------------------------------ *)
(* Static side: does any layout secret reach an output-visible sink? *)

let output_visible (lk : Analysis.Leakan.t) =
  List.filter
    (fun (l : Analysis.Leakan.leak) ->
      l.bits > 0.
      &&
      match l.sink with
      | Analysis.Leakan.Output _ | Analysis.Leakan.Oracle_branch -> true
      | Analysis.Leakan.Global_store _ | Analysis.Leakan.Readable_buffer _ ->
          false)
    lk.leaks

(* Dynamic side: the fully hardened build under [seeds] entropy seeds.
   Leak-free programs must print the same bytes every time (the
   differential-oracle property); leaking ones must not. *)
let distinct_outputs ~backend applied ~chunks =
  let outputs =
    List.init seeds (fun s ->
        let _, stats =
          Apps.Runner.run_chunks ~backend applied
            ~seed:(Int64.of_int (101 + (17 * s)))
            ~chunks
        in
        stats.Machine.Exec.output)
  in
  List.length (List.sort_uniq compare outputs)

let full_config = Defenses.Defense.Smokestack Smokestack.Config.default

let check_program ~backend entry =
  let prog = Lazy.force entry.eprogram in
  let lk = Analysis.Leakan.analyze prog in
  let visible = output_visible lk in
  let applied = Defenses.Defense.apply ~seed:3L full_config prog in
  let distinct = distinct_outputs ~backend applied ~chunks:entry.echunks in
  {
    pname = entry.ename;
    static_leaks = List.length visible;
    static_bits = lk.total_bits;
    distinct_outputs = distinct;
    agree = List.length visible > 0 = (distinct > 1);
  }

(* ------------------------------------------------------------------ *)
(* Guided attack vs the degraded-entropy prediction *)

(* The fraction of drawn layouts that place every chain-written slot
   above the buffer — a forward overflow cannot reach below it.  This
   is exploit physics, not guessing entropy: the disclosure tells the
   guided attacker the layout exactly, but an out-of-reach layout
   still burns the session.  Sampled from the P-BOX like the E9
   entropy accounting. *)
let reach_factor prog (chain : Dopc.Chain.t) =
  let hardened =
    try
      Some (Smokestack.Harden.harden ~validate:false Smokestack.Config.default prog)
    with _ -> None
  in
  match hardened with
  | None -> 1.
  | Some h -> (
      match Smokestack.Pbox.binding h.pbox chain.func with
      | None -> 1.
      | Some b -> (
          match Smokestack.Pbox.dyn_of h.pbox b with
          | None -> 1.
          | Some dyn -> (
              match Ir.Prog.find_func prog chain.func with
              | None -> 1.
              | Some f -> (
                  let order =
                    match f.blocks with
                    | [] -> []
                    | entry :: _ ->
                        List.filter_map
                          (function
                            | Ir.Instr.Alloca { count = None; name; _ } ->
                                Some name
                            | _ -> None)
                          entry.instrs
                  in
                  let idx n =
                    let rec go i = function
                      | [] -> None
                      | x :: _ when x = n -> Some i
                      | _ :: tl -> go (i + 1) tl
                    in
                    go 0 order
                  in
                  let written =
                    List.sort_uniq compare
                      (List.concat_map
                         (fun (s : Dopc.Chain.step) ->
                           List.map
                             (fun (w : Dopc.Chain.write) -> w.target)
                             s.writes)
                         chain.steps)
                  in
                  let widx = List.map idx written in
                  match idx chain.buffer with
                  | Some bi when List.for_all Option.is_some widx ->
                      let widx = List.map Option.get widx in
                      let rng = Sutil.Simrng.create ~seed:11L in
                      let n = 4096 in
                      let ok = ref 0 in
                      for _ = 1 to n do
                        let offs =
                          Smokestack.Runtime.dynamic_offsets_for_draw dyn
                            (Sutil.Simrng.next_u64 rng)
                        in
                        if List.for_all (fun i -> offs.(i) > offs.(bi)) widx
                        then incr ok
                      done;
                      if !ok = 0 then float_of_int n
                      else float_of_int n /. float_of_int !ok
                  | _ -> 1.))))

let guided_measurement ~backend ~budget ~walks () =
  match Apps.Synth.find "stack-leaky" with
  | None -> None
  | Some v -> (
      let prog = Lazy.force v.Apps.Synth.program in
      let report = Analysis.Report.analyze_prog ~name:"stack-leaky" prog in
      let of_summary s =
        Option.value ~default:infinity (List.assoc_opt "smokestack" s)
      in
      let blind_expected = of_summary (Analysis.Report.summary report) in
      let degraded_expected =
        of_summary (Analysis.Report.summary_degraded report)
      in
      let guides = Dopc.Plan.leak_guides prog in
      let _, chains = Dopc.Plan.synthesize ~target:"stack-leaky" prog in
      match
        List.find_opt
          (fun c ->
            Dopc.Chain.strong_goal c && Dopc.Plan.guide_for guides c <> None)
          chains
      with
      | None -> None
      | Some chain ->
          let guide = Option.get (Dopc.Plan.guide_for guides chain) in
          let applied = Defenses.Defense.apply ~seed:3L full_config prog in
          let blind_attempts =
            Attacks.Bruteforce.attempts_to_success
              (Dopc.Exec.brute ~backend applied chain ~budget ~seed0:0)
          in
          let guided_attempts =
            List.init walks (fun w ->
                Attacks.Bruteforce.attempts_to_success
                  (Dopc.Exec.brute_guided ~backend applied chain
                     ~disclosed:guide.Dopc.Plan.disclosed ~budget
                     ~seed0:(1000 * (w + 1))))
          in
          let guided_mean =
            let total =
              List.fold_left
                (fun acc a -> acc + Option.value ~default:budget a)
                0 guided_attempts
            in
            float_of_int total /. float_of_int (max 1 walks)
          in
          let reach = reach_factor prog chain in
          let predicted = Float.max 1. degraded_expected *. reach in
          Some
            {
              gtarget = "stack-leaky";
              gchain =
                Printf.sprintf "%s #%s"
                  (Dopc.Chain.family_to_string chain.family)
                  chain.chain_id;
              blind_expected;
              degraded_expected;
              reach_factor = reach;
              predicted;
              blind_attempts;
              guided_attempts;
              guided_mean;
              within_bound =
                guided_mean <= 3. *. predicted
                && predicted <= 3. *. guided_mean;
              gbudget = budget;
            })

(* ------------------------------------------------------------------ *)

let run ?(pool = Sched.Pool.sequential) ~backend ?(progen = 5)
    ?(leaky_progen = 8) ?(budget = 600) ?(walks = 5) () =
  Analysis.Validate.install ();
  let entries = corpus ~progen ~leaky_progen in
  (* forcing a lazy concurrently from two domains is undefined: compile
     everything here, sequentially, before any job is submitted *)
  List.iter (fun e -> ignore (Lazy.force e.eprogram)) entries;
  (match Apps.Synth.find "stack-leaky" with
  | Some v -> ignore (Lazy.force v.Apps.Synth.program)
  | None -> ());
  let results =
    Sched.Pool.run_all pool
      (List.map
         (fun e ->
           Sched.Job.v ~id:("leakcheck/" ^ e.ename) ~seed:3L (fun () ->
               `Row (check_program ~backend e)))
         entries
      @ [
          Sched.Job.v ~id:"leakcheck/guided" ~seed:3L (fun () ->
              `Guided (guided_measurement ~backend ~budget ~walks ()));
        ])
  in
  let rows =
    List.filter_map (function `Row r -> Some r | `Guided _ -> None) results
  in
  let guided =
    List.find_map
      (function `Guided g -> g | `Row _ -> None)
      results
  in
  {
    rows;
    seeds;
    disagreements = List.length (List.filter (fun r -> not r.agree) rows);
    guided;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("program", Left);
            ("static leaks", Right);
            ("bits", Right);
            (Printf.sprintf "outputs (%d seeds)" t.seeds, Right);
            ("agree", Left);
          ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          r.pname;
          string_of_int r.static_leaks;
          Printf.sprintf "%.2f" r.static_bits;
          string_of_int r.distinct_outputs;
          (if r.agree then "yes" else "NO");
        ])
    t.rows;
  tbl

let fmt_attempts budget = function
  | Some n -> string_of_int n
  | None -> Printf.sprintf "> %d" budget

let guided_only_table guided =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.[ ("quantity", Left); ("value", Right) ]
  in
  (match guided with
  | None -> Sutil.Texttable.add_row tbl [ "guidable chain"; "NONE" ]
  | Some g ->
      List.iter
        (Sutil.Texttable.add_row tbl)
        [
          [ "target / chain"; Printf.sprintf "%s %s" g.gtarget g.gchain ];
          (* pair-level numbers: the analyzer scores the easiest DOP
             pair, not the full multi-slot chain the planner built —
             the chain's blind cost is strictly higher *)
          [ "easiest-pair attempts, blind (static)";
            Printf.sprintf "%.1f" g.blind_expected ];
          [ "easiest-pair attempts, leak-degraded";
            Printf.sprintf "%.1f" g.degraded_expected ];
          [ "layout-reachability factor";
            Printf.sprintf "%.1f" g.reach_factor ];
          [ "predicted guided attempts"; Printf.sprintf "%.1f" g.predicted ];
          [ "measured blind attempts"; fmt_attempts g.gbudget g.blind_attempts ];
          [ "measured guided attempts (walks)";
            String.concat ", "
              (List.map (fmt_attempts g.gbudget) g.guided_attempts) ];
          [ "measured guided mean"; Printf.sprintf "%.1f" g.guided_mean ];
          [ "within factor-3 bound"; (if g.within_bound then "yes" else "NO") ];
        ]);
  tbl

let guided_run ~backend ?(budget = 600) ?(walks = 5) () =
  Analysis.Validate.install ();
  guided_measurement ~backend ~budget ~walks ()

let output t =
  [
    Output.table "leaks" "E19: static vs dynamic layout-leak cross-validation" (table t);
    Output.text "static/dynamic disagreements: %d" t.disagreements;
    Output.table "leaks_guided" "E19: leak-guided attack vs degraded-entropy prediction"
      (guided_only_table t.guided);
  ]

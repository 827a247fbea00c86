type row = {
  cname : string;
  verdicts : Attacks.Verdict.t list;
  dynamic_success : bool;
  static_pairs : int;
  matched : string option;
  validated : bool;
}

type t = { rows : row list; all_validated : bool }

(* Witness sets: which (buffer, victim) tuples each attack corrupts.
   These are read off the exploit implementations in lib/apps — e.g.
   the librelp key leak overflows allNames in relpTcpChkPeerName and
   redirects keyPtr in the caller relpTcpLstnInit — so the check stays
   an independent cross-validation rather than "the analyzer agrees
   with itself". *)
let synth_cases () =
  List.map
    (fun (v : Apps.Synth.variant) ->
      let witnesses =
        match (v.location, v.technique) with
        | `Stack, `Direct ->
            (* direct overflow from buff over the dispatcher operands *)
            [
              ("serve", "buff", "serve", "ctr");
              ("serve", "buff", "serve", "size");
              ("serve", "buff", "serve", "step");
            ]
        | `Stack, `Indirect ->
            (* buff corrupts a data pointer; the wild write lands on the
               bookkeeping slots *)
            [
              ("serve", "buff", "serve", "seen");
              ("serve", "buff", "serve", "stamp");
              ("serve", "*", "serve", "seen");
              ("serve", "*", "serve", "stamp");
              ("serve", "*", "serve", "ticks");
            ]
        | `Data, `Direct | `Heap, `Direct ->
            [ ("serve", "slots", "serve", "auth") ]
        | `Data, `Indirect | `Heap, `Indirect ->
            [ ("serve", "*", "serve", "auth") ]
      in
      (v.vname, Lazy.force v.program, v.attack, witnesses))
    Apps.Synth.variants

let realvuln_cases () =
  let librelp = Lazy.force Apps.Librelp.program in
  let wireshark = Lazy.force Apps.Wireshark.program in
  let proftpd = Lazy.force Apps.Proftpd.program in
  let proftpd_witness =
    [
      ("sreplace", "buf", "cmd_loop", "op");
      ("sreplace", "buf", "cmd_loop", "delta");
    ]
  in
  [
    ( "librelp/key-leak",
      librelp,
      Apps.Librelp.attack_static,
      [ ("relpTcpChkPeerName", "allNames", "relpTcpLstnInit", "keyPtr") ] );
    ( "wireshark/CVE-2014-2299",
      wireshark,
      Apps.Wireshark.attack,
      [
        ( "packet_list_dissect_and_cache_record",
          "pd",
          "packet_list_dissect_and_cache_record",
          "col" );
        ( "packet_list_dissect_and_cache_record",
          "pd",
          "packet_list_dissect_and_cache_record",
          "cinfo" );
        ( "packet_list_dissect_and_cache_record",
          "pd",
          "packet_list_dissect_and_cache_record",
          "packet_list" );
      ] );
    ("proftpd/key-extraction", proftpd, Apps.Proftpd.attack_key_extraction, proftpd_witness);
    ("proftpd/bot", proftpd, Apps.Proftpd.attack_bot, proftpd_witness);
    ("proftpd/mem-permissions", proftpd, Apps.Proftpd.attack_memperm, proftpd_witness);
  ]

let cases () = synth_cases () @ realvuln_cases ()

let find_witness pairs witnesses =
  List.find_map
    (fun (bf, bs, vf, vs) ->
      if
        List.exists
          (fun (p : Analysis.Dop.pair) ->
            p.buf_func = bf && p.buf_slot = bs && p.victim_func = vf
            && p.victim_slot = vs)
          pairs
      then Some (Printf.sprintf "%s:%s -> %s:%s" bf bs vf vs)
      else None)
    witnesses

(* Verdicts cross the store as (tag, detail) pairs — Store.Entry keeps
   no dependency on lib/attacks, so the conversion lives with the
   producer.  Decoding is total over what encoding emits; an unknown
   tag (a future verdict constructor read by an old binary) makes the
   whole cached list unusable, which the callers treat as a miss. *)
let verdict_to_pair = function
  | Attacks.Verdict.Success -> ("success", "")
  | Attacks.Verdict.Crashed d -> ("crashed", d)
  | Attacks.Verdict.Detected d -> ("detected", d)
  | Attacks.Verdict.No_effect -> ("no-effect", "")

let verdict_of_pair = function
  | "success", _ -> Some Attacks.Verdict.Success
  | "crashed", d -> Some (Attacks.Verdict.Crashed d)
  | "detected", d -> Some (Attacks.Verdict.Detected d)
  | "no-effect", _ -> Some Attacks.Verdict.No_effect
  | _ -> None

let verdicts_of_entry e =
  Option.bind (Store.Entry.verdicts_of_entry e) (fun pairs ->
      List.fold_right
        (fun p acc ->
          match (verdict_of_pair p, acc) with
          | Some v, Some vs -> Some (v :: vs)
          | _ -> None)
        pairs (Some []))

let cached_verdicts ?store ~(backend : Machine.Backend.t) ~source ~config ~extra
    thunk =
  match store with
  | None -> thunk ()
  | Some store ->
      Store.Cache.memo store
        (Store.Key.of_source ~source_text:source ~config
           ~engine:backend.kind ~seed:17L ~extra ())
        ~encode:(fun vs ->
          Store.Entry.verdicts_entry (List.map verdict_to_pair vs))
        ~decode:verdicts_of_entry thunk

let run ?(pool = Sched.Pool.sequential) ~backend ?(trials = 6) () =
  let cases = cases () in
  (* Static pass: once per distinct program (the proftpd exploits share
     one), in the submitting domain — the analysis is pure and fast
     without scoring.  Programs carry no name, so dedup is by physical
     identity. *)
  let static : (Ir.Prog.t * Analysis.Dop.pair list) list ref = ref [] in
  List.iter
    (fun (_, prog, _, _) ->
      if not (List.exists (fun (p, _) -> p == prog) !static) then
        let funcans = Analysis.Funcan.analyze prog in
        static := (prog, Analysis.Dop.enumerate prog funcans) :: !static)
    cases;
  let pairs_of prog =
    snd (List.find (fun (p, _) -> p == prog) !static)
  in
  let rows =
    Sched.Pool.run_all pool
      (List.map
         (fun (cname, prog, (attack : Apps.Dopkit.attack), witnesses) ->
           Sched.Job.v ~id:("crossval/" ^ cname) ~seed:3L (fun () ->
               let verdicts =
                 Security.trials
                   (fun a ~seed -> (attack ~backend a ~seed).verdict)
                   (Defenses.Defense.apply ~seed:3L Defenses.Defense.No_defense prog)
                   ~n:trials ~seed0:17
               in
               let dynamic_success =
                 List.exists (( = ) Attacks.Verdict.Success) verdicts
               in
               let pairs = pairs_of prog in
               let matched = find_witness pairs witnesses in
               {
                 cname;
                 verdicts;
                 dynamic_success;
                 static_pairs = List.length pairs;
                 matched;
                 validated = (not dynamic_success) || matched <> None;
               }))
         cases)
  in
  { rows; all_validated = List.for_all (fun r -> r.validated) rows }

(* --- selective-hardening differential (E14 acceptance) ------------ *)

type selective_row = {
  sname : string;
  elided : int;
  identical : bool;
  detail : string;
}

type selective_t = { srows : selective_row list; all_identical : bool }

let selective_config =
  Smokestack.Config.with_selective true Smokestack.Config.default

(* Elision is draw-preserving (the elided prologue still consumes one
   ss.rand draw, and Pbox.build shuffles the full meta list), so full
   and selective hardening must be observationally indistinguishable:
   every attack attempt gets the same verdict, every clean run the same
   outcome and output.  Stats like cycles legitimately differ — the
   elided functions skip the permutation loads — so they are not
   compared. *)
let run_selective ?(pool = Sched.Pool.sequential) ~(backend : Machine.Backend.t)
    () =
  let trials = 6 in
  (* the elision oracle behind Config.selective lives in lib/analysis *)
  Analysis.Validate.install ();
  let full = Defenses.Defense.Smokestack Smokestack.Config.default in
  let sel = Defenses.Defense.Smokestack selective_config in
  let elided_count prog =
    List.length
      (Smokestack.Harden.harden ~seed:3L selective_config prog)
        .Smokestack.Harden.elided
  in
  let attack_jobs =
    List.map
      (fun (cname, prog, (attack : Apps.Dopkit.attack), _) ->
        Sched.Job.v ~id:("selective/" ^ cname) ~seed:3L (fun () ->
            let verdicts_under d =
              Security.trials
                (fun a ~seed -> (attack ~backend a ~seed).verdict)
                (Defenses.Defense.apply ~seed:3L d prog)
                ~n:trials ~seed0:17
            in
            let vf = verdicts_under full and vs = verdicts_under sel in
            let identical = vf = vs in
            {
              sname = cname;
              elided = elided_count prog;
              identical;
              detail =
                (if identical then
                   Printf.sprintf "%d verdict(s) identical" trials
                 else "verdict lists diverge");
            }))
      (cases ())
  in
  let progen_jobs =
    List.map
      (fun (pseed, psource) ->
        Sched.Job.v
          ~id:(Printf.sprintf "selective/progen-%Ld" pseed)
          ~seed:pseed
          (fun () ->
            let prog = lazy (Minic.Driver.compile psource) in
            let run_under d =
              Store.Entry.exec_of_run
                (Apps.Runner.run_chunks ~backend
                   (Defenses.Defense.apply ~seed:3L d (Lazy.force prog))
                   ~seed:7L ~chunks:[])
            in
            let ef = run_under full and es = run_under sel in
            let identical =
              String.equal ef.Store.Entry.outcome es.Store.Entry.outcome
              && String.equal ef.Store.Entry.stats.Machine.Exec.output
                   es.Store.Entry.stats.Machine.Exec.output
            in
            {
              sname = Printf.sprintf "progen-%Ld" pseed;
              elided = elided_count (Lazy.force prog);
              identical;
              detail =
                (if identical then
                   Printf.sprintf "outcome %s, output identical"
                     ef.Store.Entry.outcome
                 else "outcome or output diverges");
            }))
      (List.of_seq (Minic.Progen.range ~seed:100L 8))
  in
  let srows = Sched.Pool.run_all pool (attack_jobs @ progen_jobs) in
  { srows; all_identical = List.for_all (fun r -> r.identical) srows }

let selective_table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("case", Left);
            ("elided", Right);
            ("full = selective", Left);
            ("detail", Left);
          ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          r.sname;
          string_of_int r.elided;
          (if r.identical then "yes" else "NO");
          r.detail;
        ])
    t.srows;
  tbl

let selective_output t =
  [
    Output.table "selective_diff"
      "E14a: selective-hardening differential (attack verdicts and Progen output bit-identical \
       to full hardening)"
      (selective_table t);
    Output.text "all identical: %b" t.all_identical;
  ]

let table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("attack", Left);
            ("dynamic", Left);
            ("static pairs", Right);
            ("witness pair", Left);
            ("validated", Left);
          ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          r.cname;
          (if r.dynamic_success then "success" else "blocked");
          string_of_int r.static_pairs;
          Option.value r.matched ~default:"-";
          (if r.validated then "yes" else "NO");
        ])
    t.rows;
  tbl

let output t =
  [
    Output.table "crossval" "E12b: differential validation (dynamic attack => static DOP pair)"
      (table t);
    Output.text "all validated: %b" t.all_validated;
  ]

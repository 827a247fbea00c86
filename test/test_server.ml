(* Tests for the multi-tenant server runtime (lib/server): traffic
   determinism, the virtual-time admission queue, the security ledger
   (served attack verdicts must reproduce the batch harness's), and the
   property the subsystem exists for — reports byte-identical across
   pool widths and engines, checked over 100+ roots. *)

let ref_backend = Machine.Backend.reference
let bc_backend = Engine.Backend.backend

(* A small, cheap fleet for the many-seed property tests: hardening two
   synthetic apps per run keeps 100 roots affordable. *)
let small_apps =
  List.map
    (fun n -> Option.get (Apps.Sessions.find n))
    [ "synth-stack-direct"; "synth-data-indirect" ]

(* ------------------------------------------------------------------ *)
(* Traffic generation *)

let kind_repr = function
  | Server.Session.Benign chunks -> "b:" ^ String.concat "," chunks
  | Server.Session.Attack name -> "a:" ^ name
  | Server.Session.Chaotic (chunks, plan) ->
      Printf.sprintf "c:%s@%s" (String.concat "," chunks)
        (Fault.Plan.to_spec plan)

let spec_repr (s : Server.Session.spec) =
  Printf.sprintf "%d|%s|%s|%Ld|%.0f" s.sid s.tenant.Server.Tenant.name
    (kind_repr s.kind) s.sseed s.arrival

let schedule_digest specs =
  Digest.to_hex (Digest.string (String.concat ";" (List.map spec_repr specs)))

let test_traffic_replays_over_100_roots () =
  for root = 0 to 119 do
    let root = Int64.of_int root in
    let tenants = Server.Tenant.fleet ~root () in
    let config = { Server.Traffic.default with sessions = 40; root } in
    let a = schedule_digest (Server.Traffic.generate config tenants) in
    let b = schedule_digest (Server.Traffic.generate config tenants) in
    Alcotest.(check string)
      (Printf.sprintf "schedule replays for root %Ld" root)
      a b
  done

let test_traffic_shape () =
  let tenants = Server.Tenant.fleet ~root:7L () in
  let config = { Server.Traffic.default with sessions = 400; root = 7L } in
  let specs = Server.Traffic.generate config tenants in
  Alcotest.(check int) "schedule length" 400 (List.length specs);
  (* sids dense and arrivals monotone: the schedule is in arrival order *)
  List.iteri
    (fun i (s : Server.Session.spec) ->
      Alcotest.(check int) "dense sid" i s.sid)
    specs;
  ignore
    (List.fold_left
       (fun prev (s : Server.Session.spec) ->
         Alcotest.(check bool) "arrivals strictly increase" true
           (s.Server.Session.arrival > prev);
         s.Server.Session.arrival)
       (-1.) specs);
  let benign, attack, chaos = Server.Traffic.census specs in
  Alcotest.(check int) "census sums to the schedule" 400
    (benign + attack + chaos);
  (* the mix follows the percentages, loosely (it is a random draw) *)
  Alcotest.(check bool) "attack share near 12%" true
    (attack > 20 && attack < 80);
  Alcotest.(check bool) "chaos share near 6%" true (chaos > 5 && chaos < 50);
  (* every attack name resolves in the session registry *)
  List.iter
    (fun (s : Server.Session.spec) ->
      match s.kind with
      | Server.Session.Attack name ->
          Alcotest.(check bool)
            (Printf.sprintf "attack %s is registered" name)
            true
            (Option.is_some (Apps.Sessions.find_attack name))
      | _ -> ())
    specs

(* Every field of a spec, arrivals in hex: [spec_repr]'s [%.0f] would
   hide a drift in the last bits of a prefix sum. *)
let exact_repr (s : Server.Session.spec) =
  Printf.sprintf "%d|%s|%s|%d|%b|%Ld|%h" s.sid s.tenant.Server.Tenant.name (kind_repr s.kind)
    s.client s.paying s.sseed s.arrival

let test_traffic_pooled_matches_sequential () =
  let check pool what config tenants =
    Alcotest.(check (list string))
      (Printf.sprintf "%s at width %d" what (Sched.Pool.jobs pool))
      (List.map exact_repr (Server.Traffic.generate config tenants))
      (List.map exact_repr (Server.Traffic.generate ~pool config tenants))
  in
  List.iter
    (fun jobs ->
      Sched.Pool.with_pool ~jobs @@ fun pool ->
      for root = 0 to 119 do
        let root = Int64.of_int root in
        check pool
          (Printf.sprintf "root %Ld" root)
          { Server.Traffic.default with sessions = 40; root }
          (Server.Tenant.fleet ~root ())
      done;
      let storm =
        {
          Server.Traffic.default with
          sessions = 400;
          root = 9L;
          storm = Some (Fault.Storm.plan ~root:9L ~sessions:400 ());
        }
      in
      check pool "storm" storm (Server.Tenant.fleet ~apps:small_apps ~root:9L ()))
    [ 2; 8 ]

(* ------------------------------------------------------------------ *)
(* The admission queue *)

let dispatch_once ?(queue_capacity = 1024) ?(virtual_workers = 16) ~root
    ~sessions () =
  let tenants = Server.Tenant.fleet ~apps:small_apps ~root () in
  let traffic =
    { Server.Traffic.default with sessions; root; mean_gap = 60 }
  in
  let specs = Server.Traffic.generate traffic tenants in
  let config =
    {
      Server.Dispatch.default with
      Server.Dispatch.queue_capacity;
      virtual_workers;
      shard = 4;
    }
  in
  (specs, Server.Dispatch.run ~backend:ref_backend ~config tenants specs)

let test_queue_invariants () =
  let specs, d = dispatch_once ~root:3L ~sessions:60 () in
  Alcotest.(check int) "nothing lost" (List.length specs)
    (List.length d.Server.Dispatch.served
    + List.length d.Server.Dispatch.shed
    + List.length d.Server.Dispatch.dropped);
  Alcotest.(check int) "nothing dropped without supervision" 0
    (List.length d.Server.Dispatch.dropped);
  List.iter
    (fun (s : Server.Dispatch.served) ->
      let arrival = s.outcome.Server.Session.spec.Server.Session.arrival in
      Alcotest.(check bool) "start after arrival" true (s.start >= arrival);
      Alcotest.(check bool) "wait non-negative" true
        (Server.Dispatch.wait s >= 0.);
      Alcotest.(check (float 1e-6)) "finish = start + service"
        (s.start +. s.outcome.Server.Session.service_cycles)
        s.finish;
      Alcotest.(check bool) "sojourn covers the wait" true
        (Server.Dispatch.sojourn s >= Server.Dispatch.wait s))
    d.Server.Dispatch.served;
  Alcotest.(check bool) "makespan is the last finish" true
    (List.for_all
       (fun (s : Server.Dispatch.served) ->
         s.finish <= d.Server.Dispatch.makespan)
       d.Server.Dispatch.served)

let test_backpressure_sheds_under_overload () =
  (* one handler, a two-deep queue, bursty arrivals: must shed *)
  let _, tight =
    dispatch_once ~queue_capacity:2 ~virtual_workers:1 ~root:3L ~sessions:60 ()
  in
  Alcotest.(check bool) "tight queue sheds" true
    (List.length tight.Server.Dispatch.shed > 0);
  Alcotest.(check bool) "peak open bounded by capacity + workers" true
    (tight.Server.Dispatch.peak_open <= 2 + 1);
  (* an effectively unbounded queue never sheds the same schedule *)
  let _, wide =
    dispatch_once ~queue_capacity:100_000 ~virtual_workers:1 ~root:3L
      ~sessions:60 ()
  in
  Alcotest.(check int) "unbounded queue sheds nothing" 0
    (List.length wide.Server.Dispatch.shed)

(* ------------------------------------------------------------------ *)
(* The security ledger *)

let test_served_attacks_match_batch_verdicts () =
  let tenants = Server.Tenant.fleet ~root:11L () in
  let traffic =
    { Server.Traffic.default with sessions = 150; root = 11L }
  in
  let specs = Server.Traffic.generate traffic tenants in
  let d = Server.Dispatch.run ~backend:ref_backend tenants specs in
  let summary = Server.Metrics.of_dispatch d in
  Alcotest.(check bool) "schedule contains attacks" true
    (summary.Server.Metrics.attack_sessions > 0);
  Alcotest.(check int) "every executed attack is checked"
    summary.Server.Metrics.attack_sessions
    summary.Server.Metrics.batch_checked;
  Alcotest.(check int) "zero batch-verdict mismatches" 0
    summary.Server.Metrics.batch_mismatches;
  let outcomes =
    List.map (fun (s : Server.Dispatch.served) -> s.outcome)
      d.Server.Dispatch.served
    @ List.map fst d.Server.Dispatch.shed
  in
  List.iter
    (fun (o : Server.Session.outcome) ->
      match (o.spec.Server.Session.kind, o.batch_match) with
      | Server.Session.Attack _, Some true -> ()
      | Server.Session.Attack name, _ ->
          Alcotest.failf "attack %s diverged from its batch verdict" name
      | _, None -> ()
      | _, Some _ ->
          Alcotest.fail "non-attack sessions have no batch verdict")
    outcomes

let test_summary_accounting () =
  let tenants = Server.Tenant.fleet ~apps:small_apps ~root:5L () in
  let traffic = { Server.Traffic.default with sessions = 80; root = 5L } in
  let specs = Server.Traffic.generate traffic tenants in
  let d = Server.Dispatch.run ~backend:ref_backend tenants specs in
  let s = Server.Metrics.of_dispatch d in
  Alcotest.(check int) "sessions = served + shed + rejected + dropped"
    s.Server.Metrics.sessions
    (s.Server.Metrics.served + s.Server.Metrics.shed
   + s.Server.Metrics.rejected + s.Server.Metrics.dropped);
  Alcotest.(check int) "no policy, no rejections" 0 s.Server.Metrics.rejected;
  Alcotest.(check (float 1e-9)) "no supervision, zero drop rate" 0.
    s.Server.Metrics.drop_rate;
  Alcotest.(check int) "kinds partition the executed sessions"
    (s.Server.Metrics.served + s.Server.Metrics.shed)
    (s.Server.Metrics.benign + s.Server.Metrics.attacks
   + s.Server.Metrics.chaos);
  Alcotest.(check bool) "latency percentiles are ordered" true
    (s.Server.Metrics.p50 <= s.Server.Metrics.p95
    && s.Server.Metrics.p95 <= s.Server.Metrics.p99);
  Alcotest.(check bool) "detections bounded by attacks" true
    (s.Server.Metrics.detected <= s.Server.Metrics.attack_sessions)

(* ------------------------------------------------------------------ *)
(* Byte-identity: engines x pool widths, 100+ roots *)

let outcome_repr (o : Server.Session.outcome) =
  Printf.sprintf "%d:%s:%.0f:%d:%d:%s"
    o.spec.Server.Session.sid
    (Attacks.Verdict.to_string o.verdict)
    o.Server.Session.service_cycles o.requests o.fired
    (match o.batch_match with
    | None -> "-"
    | Some b -> string_of_bool b)

let dispatch_digest (d : Server.Dispatch.t) =
  let served =
    List.map
      (fun (s : Server.Dispatch.served) ->
        Printf.sprintf "%s@%.0f-%.0f/%s" (outcome_repr s.outcome) s.start
          s.finish
          (Server.Policy.cls_label s.cls))
      d.served
  in
  let shed =
    List.map
      (fun (o, c) -> outcome_repr o ^ "/" ^ Server.Policy.cls_label c)
      d.shed
  in
  let rejected =
    List.map
      (fun (o, r) -> outcome_repr o ^ "!" ^ Server.Dispatch.refusal_label r)
      d.rejected
  in
  (* breaker state, quarantine sets and per-class latencies all feed the
     digest: the determinism property covers the whole policy layer *)
  let policy =
    match d.policy with
    | None -> "none"
    | Some p ->
        Printf.sprintf "trips=%d;rb=%d;rq=%d;q=[%s];delay=%.0f"
          p.Server.Policy.breaker_trips p.Server.Policy.rejected_backoff
          p.Server.Policy.rejected_quarantine
          (String.concat ","
             (List.map string_of_int p.Server.Policy.quarantined))
          p.Server.Policy.added_delay
  in
  let class_lat =
    List.map
      (fun cls ->
        let sojourns =
          Array.of_list
            (List.filter_map
               (fun (s : Server.Dispatch.served) ->
                 if s.cls = cls then Some (Server.Dispatch.sojourn s) else None)
               d.served)
        in
        Array.sort compare sojourns;
        Printf.sprintf "%s:p99=%.0f"
          (Server.Policy.cls_label cls)
          (Server.Metrics.percentile sojourns 99.))
      [ Server.Policy.Paying; Server.Policy.Standard; Server.Policy.Suspect ]
  in
  Digest.to_hex
    (Digest.string
       (String.concat ";" served ^ "|" ^ String.concat ";" shed ^ "|"
      ^ String.concat ";" rejected ^ "|" ^ policy ^ "|"
      ^ String.concat ";" class_lat
      ^ Printf.sprintf "|peak=%d|mk=%.0f|deg=%d" d.peak_open d.makespan
          d.degraded))

let test_replay_identical_across_engines_and_widths () =
  (* the ISSUE's acceptance property: for 100+ roots, the full dispatch
     digest is identical on the reference engine at jobs=1, on the
     reference engine at jobs=8, and on the bytecode engine *)
  Sched.Pool.with_pool ~jobs:8 @@ fun pool ->
  let config =
    {
      Server.Dispatch.default with
      Server.Dispatch.virtual_workers = 2;
      queue_capacity = 3;
      shard = 2;
    }
  in
  for root = 0 to 103 do
    let root = Int64.of_int root in
    let tenants = Server.Tenant.fleet ~apps:small_apps ~root () in
    let traffic =
      { Server.Traffic.default with sessions = 6; root; mean_gap = 40 }
    in
    let specs = Server.Traffic.generate traffic tenants in
    let seq_ref =
      dispatch_digest
        (Server.Dispatch.run ~backend:ref_backend ~config tenants specs)
    in
    let par_ref =
      dispatch_digest
        (Server.Dispatch.run ~pool ~backend:ref_backend ~config tenants specs)
    in
    let seq_bc =
      dispatch_digest
        (Server.Dispatch.run ~backend:bc_backend ~config tenants specs)
    in
    Alcotest.(check string)
      (Printf.sprintf "root %Ld: jobs=8 == jobs=1" root)
      seq_ref par_ref;
    Alcotest.(check string)
      (Printf.sprintf "root %Ld: bytecode == reference" root)
      seq_ref seq_bc
  done

let test_full_harness_report_identical () =
  (* the whole E15 report — tables and markdown — through Harness.Serve *)
  let config =
    {
      Harness.Serve.default with
      Harness.Serve.traffic =
        { Server.Traffic.default with sessions = 120; root = 11L };
    }
  in
  let render t = Harness.Output.to_markdown (Harness.Serve.output t) in
  let seq = render (Harness.Serve.run ~backend:ref_backend ~config ()) in
  let par =
    Sched.Pool.with_pool ~jobs:6 (fun pool ->
        render (Harness.Serve.run ~pool ~backend:ref_backend ~config ()))
  in
  let bc = render (Harness.Serve.run ~backend:bc_backend ~config ()) in
  Alcotest.(check string) "report identical at jobs=6" seq par;
  Alcotest.(check string) "report identical on bytecode" seq bc

(* Two tenants share one app whose program is a fresh, unforced [lazy]:
   dispatching them on a 4-domain pool must not force it from two
   domains at once, and must equal the sequential run.  Whether two
   domains race on the force depends on timing, so eight fresh fleets. *)
let test_shared_lazy_program_dispatch () =
  let fresh_app () =
    let v = List.hd Apps.Synth.variants in
    let app = Option.get (Apps.Sessions.find ("synth-" ^ v.Apps.Synth.vname)) in
    { app with Apps.Sessions.sprogram = lazy (Minic.Driver.compile v.Apps.Synth.source) }
  in
  let digest ?pool () =
    let app = fresh_app () in
    let tenants = Server.Tenant.fleet ~apps:[ app; app ] ~root:5L () in
    let traffic = { Server.Traffic.default with sessions = 40; root = 5L; mean_gap = 40 } in
    let specs = Server.Traffic.generate ?pool traffic tenants in
    dispatch_digest (Server.Dispatch.run ?pool ~backend:ref_backend tenants specs)
  in
  let seq = digest () in
  Sched.Pool.with_pool ~jobs:4 @@ fun pool ->
  for i = 1 to 8 do
    Alcotest.(check string) (Printf.sprintf "fleet %d: jobs=4 == jobs=1" i) seq (digest ~pool ())
  done

(* ------------------------------------------------------------------ *)
(* Circuit breakers: transition boundaries in virtual time *)

let tight_breaker =
  {
    Server.Policy.failures = 2;
    base_backoff = 100.;
    factor = 2.;
    max_backoff = 1000.;
    max_trips = 2;
  }

let check_decision msg expected actual =
  let repr = function
    | Server.Policy.Admit -> "admit"
    | Server.Policy.Reject_backoff w -> Printf.sprintf "backoff:%.1f" w
    | Server.Policy.Reject_quarantine -> "quarantine"
  in
  Alcotest.(check string) msg (repr expected) (repr actual)

let test_breaker_open_half_open_quarantine () =
  let p =
    Server.Policy.create { Server.Policy.affinity = true; breaker = tight_breaker }
  in
  let c = 7 in
  check_decision "pristine client admits" Server.Policy.Admit
    (Server.Policy.decide p ~client:c ~now:0.);
  Alcotest.(check bool) "pristine client is not suspect" false
    (Server.Policy.suspect p ~client:c);
  (* one failure: still closed (threshold 2), but now suspect *)
  Server.Policy.observe p ~client:c ~now:10. ~failure:true;
  check_decision "one failure still admits" Server.Policy.Admit
    (Server.Policy.decide p ~client:c ~now:11.);
  Alcotest.(check bool) "failure history makes a suspect" true
    (Server.Policy.suspect p ~client:c);
  (* a success resets the consecutive-failure count *)
  Server.Policy.observe p ~client:c ~now:12. ~failure:false;
  Server.Policy.observe p ~client:c ~now:15. ~failure:true;
  check_decision "reset count: still closed" Server.Policy.Admit
    (Server.Policy.decide p ~client:c ~now:16.);
  (* second consecutive failure trips: open until 20 + 100 *)
  Server.Policy.observe p ~client:c ~now:20. ~failure:true;
  check_decision "open rejects with remaining backoff"
    (Server.Policy.Reject_backoff 100.)
    (Server.Policy.decide p ~client:c ~now:20.);
  check_decision "one cycle before the deadline still rejects"
    (Server.Policy.Reject_backoff 1.)
    (Server.Policy.decide p ~client:c ~now:119.);
  (* exactly at the deadline: the half-open probe is admitted *)
  check_decision "deadline boundary admits the probe" Server.Policy.Admit
    (Server.Policy.decide p ~client:c ~now:120.);
  (match Server.Policy.state_of p ~client:c with
  | Server.Policy.Half_open _ -> ()
  | _ -> Alcotest.fail "expected half-open after the probe admission");
  (* probe fails: re-open with doubled backoff (trip 2) *)
  Server.Policy.observe p ~client:c ~now:130. ~failure:true;
  check_decision "re-opened with doubled backoff"
    (Server.Policy.Reject_backoff 200.)
    (Server.Policy.decide p ~client:c ~now:130.);
  check_decision "second deadline admits again" Server.Policy.Admit
    (Server.Policy.decide p ~client:c ~now:330.);
  (* probe fails again: trip 3 > max_trips 2 -> quarantined for good *)
  Server.Policy.observe p ~client:c ~now:340. ~failure:true;
  check_decision "quarantined rejects forever"
    Server.Policy.Reject_quarantine
    (Server.Policy.decide p ~client:c ~now:1e9);
  let stats = Server.Policy.stats p in
  Alcotest.(check (list int)) "quarantine set" [ c ]
    stats.Server.Policy.quarantined;
  Alcotest.(check int) "two trips recorded" 2
    stats.Server.Policy.breaker_trips

let test_breaker_probe_success_closes () =
  let p =
    Server.Policy.create { Server.Policy.affinity = true; breaker = tight_breaker }
  in
  Server.Policy.observe p ~client:1 ~now:0. ~failure:true;
  Server.Policy.observe p ~client:1 ~now:5. ~failure:true;
  check_decision "tripped" (Server.Policy.Reject_backoff 95.)
    (Server.Policy.decide p ~client:1 ~now:10.);
  check_decision "probe admitted" Server.Policy.Admit
    (Server.Policy.decide p ~client:1 ~now:200.);
  Server.Policy.observe p ~client:1 ~now:210. ~failure:false;
  (match Server.Policy.state_of p ~client:1 with
  | Server.Policy.Closed 0 -> ()
  | _ -> Alcotest.fail "probe success must close the breaker");
  (* but the client keeps its suspect marking only while non-pristine:
     a closed breaker with zero failures is pristine again *)
  Alcotest.(check bool) "recovered client no longer suspect" false
    (Server.Policy.suspect p ~client:1)

let test_affinity_off_admits_everything () =
  let p =
    Server.Policy.create
      { Server.Policy.affinity = false; breaker = tight_breaker }
  in
  for i = 0 to 9 do
    Server.Policy.observe p ~client:0 ~now:(float_of_int i) ~failure:true;
    check_decision "anonymous fleet always admits" Server.Policy.Admit
      (Server.Policy.decide p ~client:0 ~now:(float_of_int i))
  done;
  Alcotest.(check int) "no state tracked" 0
    (Server.Policy.stats p).Server.Policy.clients_tracked

let test_brute_cost_imposes_backoff () =
  let crashed = Attacks.Verdict.Crashed "probe" in
  let verdicts = [ crashed; crashed; Attacks.Verdict.Success ] in
  let breaker = { tight_breaker with failures = 1; base_backoff = 50. } in
  let off =
    Server.Policy.brute_cost
      { Server.Policy.affinity = false; breaker }
      ~gap:10. verdicts
  in
  Alcotest.(check int) "off: every attempt admitted" 3
    off.Server.Policy.attempts;
  Alcotest.(check (option (float 1e-6))) "off: cost is attempts * gap"
    (Some 30.) off.Server.Policy.virtual_cost;
  Alcotest.(check (float 1e-6)) "off: no imposed delay" 0.
    off.Server.Policy.added_delay;
  let on =
    Server.Policy.brute_cost
      { Server.Policy.affinity = true; breaker }
      ~gap:10. verdicts
  in
  Alcotest.(check bool) "on: attacker still lands eventually" true
    on.Server.Policy.succeeded;
  (* crash at 10 opens until 60; wait 50; probe crashes at 70, opens
     until 170; wait 100; success at 180 *)
  Alcotest.(check (option (float 1e-6))) "on: cost includes the backoffs"
    (Some 180.) on.Server.Policy.virtual_cost;
  Alcotest.(check (float 1e-6)) "on: imposed delay accounted" 150.
    on.Server.Policy.added_delay;
  Alcotest.(check int) "on: two backoff waits" 2 on.Server.Policy.rejected

let test_brute_cost_quarantines_persistent_failures () =
  let crashed = Attacks.Verdict.Crashed "probe" in
  let breaker = { tight_breaker with failures = 1; max_trips = 1 } in
  let cost =
    Server.Policy.brute_cost
      { Server.Policy.affinity = true; breaker }
      ~gap:10.
      [ crashed; crashed; crashed; Attacks.Verdict.Success ]
  in
  Alcotest.(check bool) "never lands" false cost.Server.Policy.succeeded;
  Alcotest.(check (option int)) "quarantined after two admitted probes"
    (Some 2) cost.Server.Policy.quarantined_at;
  Alcotest.(check (option (float 1e-6))) "unreachable: no finite cost" None
    cost.Server.Policy.virtual_cost

(* ------------------------------------------------------------------ *)
(* Fault storms *)

let test_storm_deterministic_and_bounded () =
  let mk () = Fault.Storm.plan ~root:3L ~sessions:600 () in
  let s = mk () in
  Alcotest.(check bool) "storm replays" true (mk () = s);
  Alcotest.(check int) "three bursts" 3 (List.length s.Fault.Storm.bursts);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "burst within the schedule" true
        (a >= 0 && b <= 600 && a < b))
    s.Fault.Storm.bursts;
  ignore
    (List.fold_left
       (fun prev (a, b) ->
         Alcotest.(check bool) "bursts disjoint ascending" true (a >= prev);
         b)
       0 s.Fault.Storm.bursts);
  Alcotest.(check int) "burst coverage" (Fault.Storm.storm_sessions s)
    (List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 s.Fault.Storm.bursts);
  let inside, outside =
    List.partition (fun sid -> Fault.Storm.in_burst s sid)
      (List.init 600 Fun.id)
  in
  Alcotest.(check int) "in_burst agrees with coverage"
    (Fault.Storm.storm_sessions s)
    (List.length inside);
  List.iter
    (fun sid ->
      Alcotest.(check (pair int int)) "storm rates inside bursts" (35, 30)
        (Fault.Storm.rates_at s sid ~base:(12, 6)))
    inside;
  List.iter
    (fun sid ->
      Alcotest.(check (pair int int)) "base rates outside bursts" (12, 6)
        (Fault.Storm.rates_at s sid ~base:(12, 6)))
    outside

let test_storm_shifts_the_census () =
  let tenants = Server.Tenant.fleet ~apps:small_apps ~root:9L () in
  let base = { Server.Traffic.default with sessions = 400; root = 9L } in
  let storm =
    {
      base with
      Server.Traffic.storm =
        Some (Fault.Storm.plan ~root:9L ~sessions:400 ());
    }
  in
  let _, _, chaos_base =
    Server.Traffic.census (Server.Traffic.generate base tenants)
  in
  let _, _, chaos_storm =
    Server.Traffic.census (Server.Traffic.generate storm tenants)
  in
  Alcotest.(check bool)
    (Printf.sprintf "storm inflates chaos (%d -> %d)" chaos_base chaos_storm)
    true
    (chaos_storm > chaos_base)

let test_client_identity_is_stable () =
  let tenants = Server.Tenant.fleet ~apps:small_apps ~root:21L () in
  let config =
    { Server.Traffic.default with sessions = 300; root = 21L; attackers = 3 }
  in
  let specs = Server.Traffic.generate config tenants in
  (* attack sessions come from the attacker pool, everyone else from the
     general population; the paying bit is a function of the client *)
  let tiers = Hashtbl.create 16 in
  List.iter
    (fun (s : Server.Session.spec) ->
      (match s.Server.Session.kind with
      | Server.Session.Attack _ ->
          Alcotest.(check bool) "attacks from the attacker pool" true
            (s.Server.Session.client < 3)
      | _ ->
          Alcotest.(check bool) "benign/chaos from the population" true
            (s.Server.Session.client >= 3
            && s.Server.Session.client < config.Server.Traffic.clients));
      match Hashtbl.find_opt tiers s.Server.Session.client with
      | None -> Hashtbl.add tiers s.Server.Session.client s.Server.Session.paying
      | Some paying ->
          Alcotest.(check bool) "paying bit stable per client" paying
            s.Server.Session.paying)
    specs;
  Alcotest.(check bool) "some paying clients exist" true
    (Hashtbl.fold (fun _ p acc -> acc || p) tiers false)

(* ------------------------------------------------------------------ *)
(* The admission simulator, driven directly with synthetic outcomes *)

let synth_tenant =
  lazy (List.hd (Server.Tenant.fleet ~apps:small_apps ~root:1L ()))

let mk_outcome ~sid ~client ~paying ~arrival ~svc ~verdict =
  {
    Server.Session.spec =
      {
        Server.Session.sid;
        tenant = Lazy.force synth_tenant;
        kind = Server.Session.Benign [ "x" ];
        client;
        paying;
        sseed = 0L;
        arrival;
      };
    verdict;
    service_cycles = svc;
    requests = 1;
    fired = 0;
    batch_match = None;
  }

let ok = Attacks.Verdict.No_effect
let crash = Attacks.Verdict.Crashed "synthetic"

let test_wfq_sheds_by_class () =
  (* 1 worker, queue of 1: a paying arrival finding the queue full must
     evict the queued standard session instead of being refused *)
  let cfg =
    {
      Server.Dispatch.default with
      Server.Dispatch.virtual_workers = 1;
      queue_capacity = 1;
      discipline = Server.Dispatch.Wfq;
    }
  in
  let outcomes =
    [
      mk_outcome ~sid:0 ~client:10 ~paying:false ~arrival:0. ~svc:100.
        ~verdict:ok;
      mk_outcome ~sid:1 ~client:11 ~paying:false ~arrival:1. ~svc:100.
        ~verdict:ok;
      mk_outcome ~sid:2 ~client:12 ~paying:true ~arrival:2. ~svc:100.
        ~verdict:ok;
      mk_outcome ~sid:3 ~client:13 ~paying:false ~arrival:3. ~svc:100.
        ~verdict:ok;
    ]
  in
  let d = Server.Dispatch.admit cfg outcomes in
  let sids l = List.map (fun (s : Server.Dispatch.served) ->
      s.outcome.Server.Session.spec.Server.Session.sid) l in
  Alcotest.(check (list int)) "sid 0 served, paying sid 2 took the slot"
    [ 0; 2 ] (sids d.Server.Dispatch.served);
  Alcotest.(check (list int)) "standard sids 1 and 3 shed" [ 1; 3 ]
    (List.map
       (fun ((o : Server.Session.outcome), _) ->
         o.Server.Session.spec.Server.Session.sid)
       d.Server.Dispatch.shed);
  let paying_served =
    List.find
      (fun (s : Server.Dispatch.served) ->
        s.outcome.Server.Session.spec.Server.Session.sid = 2)
      d.Server.Dispatch.served
  in
  Alcotest.(check (float 1e-6)) "queued paying starts when the worker frees"
    100. paying_served.Server.Dispatch.start;
  Alcotest.(check string) "classified paying" "paying"
    (Server.Policy.cls_label paying_served.Server.Dispatch.cls)

let test_fcfs_sheds_blindly () =
  let cfg =
    {
      Server.Dispatch.default with
      Server.Dispatch.virtual_workers = 1;
      queue_capacity = 1;
    }
  in
  let outcomes =
    [
      mk_outcome ~sid:0 ~client:10 ~paying:false ~arrival:0. ~svc:100.
        ~verdict:ok;
      mk_outcome ~sid:1 ~client:11 ~paying:false ~arrival:1. ~svc:100.
        ~verdict:ok;
      mk_outcome ~sid:2 ~client:12 ~paying:true ~arrival:2. ~svc:100.
        ~verdict:ok;
    ]
  in
  let d = Server.Dispatch.admit cfg outcomes in
  (* under FCFS the paying arrival is shed like anyone else *)
  Alcotest.(check (list int)) "paying shed under FCFS" [ 2 ]
    (List.map
       (fun ((o : Server.Session.outcome), _) ->
         o.Server.Session.spec.Server.Session.sid)
       d.Server.Dispatch.shed)

let test_breakers_reject_through_dispatch () =
  let cfg =
    {
      Server.Dispatch.default with
      Server.Dispatch.virtual_workers = 4;
      policy =
        Some
          {
            Server.Policy.affinity = true;
            breaker =
              {
                Server.Policy.failures = 1;
                base_backoff = 1000.;
                factor = 2.;
                max_backoff = 1e6;
                max_trips = 1;
              };
          };
    }
  in
  let outcomes =
    [
      (* client 0 crashes at finish=10: breaker opens until 1010 *)
      mk_outcome ~sid:0 ~client:0 ~paying:false ~arrival:0. ~svc:10.
        ~verdict:crash;
      (* inside the backoff window: rejected without reaching the queue *)
      mk_outcome ~sid:1 ~client:0 ~paying:false ~arrival:100. ~svc:10.
        ~verdict:ok;
      (* past the deadline: half-open probe admitted, crashes again ->
         trip 2 > max_trips 1 -> quarantined *)
      mk_outcome ~sid:2 ~client:0 ~paying:false ~arrival:2000. ~svc:10.
        ~verdict:crash;
      mk_outcome ~sid:3 ~client:0 ~paying:false ~arrival:3000. ~svc:10.
        ~verdict:ok;
      (* an unrelated client sails through *)
      mk_outcome ~sid:4 ~client:9 ~paying:false ~arrival:3100. ~svc:10.
        ~verdict:ok;
    ]
  in
  let d = Server.Dispatch.admit cfg outcomes in
  Alcotest.(check (list (pair int string))) "breaker walk through dispatch"
    [ (1, "backoff"); (3, "quarantine") ]
    (List.map
       (fun ((o : Server.Session.outcome), r) ->
         ( o.Server.Session.spec.Server.Session.sid,
           Server.Dispatch.refusal_label r ))
       d.Server.Dispatch.rejected);
  (match d.Server.Dispatch.policy with
  | Some p ->
      Alcotest.(check (list int)) "client 0 quarantined" [ 0 ]
        p.Server.Policy.quarantined
  | None -> Alcotest.fail "policy stats expected");
  (* the probe (sid 2) was admitted and served as a suspect *)
  let probe =
    List.find
      (fun (s : Server.Dispatch.served) ->
        s.outcome.Server.Session.spec.Server.Session.sid = 2)
      d.Server.Dispatch.served
  in
  Alcotest.(check string) "probe classified suspect" "suspect"
    (Server.Policy.cls_label probe.Server.Dispatch.cls);
  let summary = Server.Metrics.of_dispatch d in
  Alcotest.(check int) "summary counts rejections" 2
    summary.Server.Metrics.rejected;
  Alcotest.(check int) "sessions = served + shed + rejected + dropped"
    summary.Server.Metrics.sessions
    (summary.Server.Metrics.served + summary.Server.Metrics.shed
   + summary.Server.Metrics.rejected + summary.Server.Metrics.dropped)

let test_degradation_starves_suspects () =
  let cfg =
    {
      Server.Dispatch.default with
      Server.Dispatch.virtual_workers = 1;
      queue_capacity = 8;
      discipline = Server.Dispatch.Wfq;
      policy = Some { Server.Policy.default with Server.Policy.affinity = true };
      degradation =
        Some
          { Server.Dispatch.window = 10_000.; storm_failures = 2; reserve = 0.5 };
    }
  in
  (* two early chaos crashes put the fleet in degraded mode; client 5
     has one failure (suspect, breaker still closed at threshold 2);
     its next arrival finds the worker busy and, degraded, is shed
     rather than queued *)
  let outcomes =
    [
      mk_outcome ~sid:0 ~client:20 ~paying:false ~arrival:0. ~svc:10.
        ~verdict:crash;
      mk_outcome ~sid:1 ~client:21 ~paying:false ~arrival:20. ~svc:10.
        ~verdict:crash;
      mk_outcome ~sid:2 ~client:5 ~paying:false ~arrival:40. ~svc:10.
        ~verdict:crash;
      mk_outcome ~sid:3 ~client:22 ~paying:false ~arrival:60. ~svc:500.
        ~verdict:ok;
      mk_outcome ~sid:4 ~client:5 ~paying:false ~arrival:70. ~svc:10.
        ~verdict:ok;
      mk_outcome ~sid:5 ~client:23 ~paying:true ~arrival:80. ~svc:10.
        ~verdict:ok;
    ]
  in
  let d = Server.Dispatch.admit cfg outcomes in
  Alcotest.(check bool) "degraded mode engaged" true
    (d.Server.Dispatch.degraded > 0);
  let shed_sids =
    List.map
      (fun ((o : Server.Session.outcome), _) ->
        o.Server.Session.spec.Server.Session.sid)
      d.Server.Dispatch.shed
  in
  Alcotest.(check bool) "suspect arrival shed while degraded" true
    (List.mem 4 shed_sids);
  Alcotest.(check bool) "paying arrival still queued" false
    (List.mem 5 shed_sids)

(* ------------------------------------------------------------------ *)
(* Policy determinism: engines x widths over 100+ roots *)

let test_policy_replay_identical_across_engines_and_widths () =
  (* same shape as the legacy 104-root property, but with the full
     control plane on: breakers, WFQ classes, degradation, storm.  The
     digest covers breaker counters, quarantine sets, rejections and
     per-class latencies. *)
  Sched.Pool.with_pool ~jobs:8 @@ fun pool ->
  let config =
    {
      Server.Dispatch.default with
      Server.Dispatch.virtual_workers = 2;
      queue_capacity = 3;
      shard = 2;
      discipline = Server.Dispatch.Wfq;
      policy =
        Some
          {
            Server.Policy.affinity = true;
            breaker =
              {
                Server.Policy.default_breaker with
                Server.Policy.failures = 1;
                base_backoff = 500.;
                max_trips = 1;
              };
          };
      degradation =
        Some
          { Server.Dispatch.window = 5_000.; storm_failures = 2; reserve = 0.5 };
    }
  in
  for root = 0 to 103 do
    let root = Int64.of_int root in
    let tenants = Server.Tenant.fleet ~apps:small_apps ~root () in
    let traffic =
      {
        Server.Traffic.default with
        sessions = 8;
        root;
        mean_gap = 40;
        attackers = 2;
        clients = 8;
        attack_pct = 30;
        chaos_pct = 20;
        storm = Some (Fault.Storm.plan ~root ~sessions:8 ~burst_len:3 ());
      }
    in
    let specs = Server.Traffic.generate traffic tenants in
    let seq_ref =
      dispatch_digest
        (Server.Dispatch.run ~backend:ref_backend ~config tenants specs)
    in
    let par_ref =
      dispatch_digest
        (Server.Dispatch.run ~pool ~backend:ref_backend ~config tenants specs)
    in
    let seq_bc =
      dispatch_digest
        (Server.Dispatch.run ~backend:bc_backend ~config tenants specs)
    in
    Alcotest.(check string)
      (Printf.sprintf "root %Ld: policy digest jobs=8 == jobs=1" root)
      seq_ref par_ref;
    Alcotest.(check string)
      (Printf.sprintf "root %Ld: policy digest bytecode == reference" root)
      seq_ref seq_bc
  done

(* ------------------------------------------------------------------ *)
(* Admission against the reference model (test/dispatch_ref.ml, the
   sorted-list queue the per-class FIFOs replaced), the size of a serve
   result, and the allocation of one admission replay *)

(* Real outcomes with every kind of traffic: attacks and chaos for the
   breakers and the degradation window, repeat clients for affinity, a
   storm for failure bursts.  Executed once; each case rescales their
   service times, which moves the load from idle to overload. *)
let mixed_outcomes =
  lazy
    (let root = 29L in
     let tenants = Server.Tenant.fleet ~apps:small_apps ~root () in
     let traffic =
       {
         Server.Traffic.default with
         sessions = 320;
         root;
         mean_gap = 400;
         attackers = 3;
         clients = 24;
         attack_pct = 25;
         chaos_pct = 15;
         storm = Some (Fault.Storm.plan ~root ~sessions:320 ~burst_len:40 ());
       }
     in
     let specs = Server.Traffic.generate traffic tenants in
     Array.of_list (fst (Server.Dispatch.execute ~backend:ref_backend tenants specs)))

type admission_case = {
  cfg : Server.Dispatch.config;
  scale : float;  (* service-time factor *)
  prefix : int;  (* outcomes replayed *)
}

let gen_admission_case =
  let open QCheck2.Gen in
  let* virtual_workers = int_range 1 20 in
  let* queue_capacity = int_range 0 60 in
  let* discipline = oneofl Server.Dispatch.[ Fcfs; Wfq ] in
  let* weights = triple (int_range 0 8) (int_range 0 8) (int_range 0 8) in
  let* policy =
    opt
      (let* affinity = bool in
       let* failures = int_range 1 3 in
       let* base_backoff = float_range 100. 200_000. in
       let* factor = float_range 1. 3. in
       let* max_trips = int_range 0 3 in
       return
         {
           Server.Policy.affinity;
           breaker =
             {
               Server.Policy.failures;
               base_backoff;
               factor;
               max_backoff = 5e6;
               max_trips;
             };
         })
  in
  let* degradation =
    opt
      (* whole cycles, like arrivals and finishes, so that a failure
         can sit exactly on the window's edge *)
      (let* window = map float_of_int (int_range 1_000 500_000) in
       let* storm_failures = int_range 1 10 in
       let* reserve = float_range 0. 1. in
       return { Server.Dispatch.window; storm_failures; reserve })
  in
  let* scale = map (fun e -> 10. ** e) (float_range (-2.) 1.5) in
  let* prefix = int_range 1 320 in
  return
    {
      cfg =
        {
          Server.Dispatch.default with
          Server.Dispatch.virtual_workers;
          queue_capacity;
          discipline;
          weights;
          policy;
          degradation;
        };
      scale;
      prefix;
    }

let print_admission_case c =
  let d = c.cfg in
  let wp, ws, wu = d.Server.Dispatch.weights in
  Printf.sprintf
    "workers=%d capacity=%d %s weights=%d/%d/%d policy=%s degradation=%s \
     scale=%g prefix=%d"
    d.Server.Dispatch.virtual_workers d.queue_capacity
    (match d.discipline with Fcfs -> "fcfs" | Wfq -> "wfq")
    wp ws wu
    (match d.policy with
    | None -> "off"
    | Some p ->
        let b = p.Server.Policy.breaker in
        Printf.sprintf "affinity=%b,failures=%d,base=%g,factor=%g,trips=%d"
          p.affinity b.failures b.base_backoff b.factor b.max_trips)
    (match d.degradation with
    | None -> "off"
    | Some g ->
        Printf.sprintf "window=%g,storm=%d,reserve=%g" g.window
          g.storm_failures g.reserve)
    c.scale c.prefix

let sid_of (o : Server.Session.outcome) = o.spec.Server.Session.sid

(* everything admission decides, in the order it reports it *)
let admission_view (d : Server.Dispatch.t) =
  ( List.map
      (fun (s : Server.Dispatch.served) ->
        (sid_of s.outcome, s.start, s.finish, s.cls))
      d.served,
    List.map (fun (o, c) -> (sid_of o, c)) d.shed,
    List.map (fun (o, r) -> (sid_of o, r)) d.rejected,
    (d.peak_open, d.makespan, d.degraded, d.policy) )

let test_admit_matches_reference () =
  let outcomes = Lazy.force mixed_outcomes in
  let evictions = ref 0 and rejections = ref 0 and degraded = ref 0 in
  let agrees c =
    let replay =
      List.init c.prefix (fun i ->
          let o = outcomes.(i) in
          {
            o with
            Server.Session.service_cycles =
              Float.max 1. (Float.round (o.Server.Session.service_cycles *. c.scale));
          })
    in
    let d = Server.Dispatch.admit c.cfg replay in
    (* an entry shed after a later arrival was shed was evicted from the
       queue: a refusal sheds the arrival itself *)
    ignore
      (List.fold_left
         (fun latest (o, _) ->
           if sid_of o < latest then incr evictions;
           max latest (sid_of o))
         (-1) d.shed);
    rejections := !rejections + List.length d.rejected;
    degraded := !degraded + d.degraded;
    admission_view d = admission_view (Dispatch_ref.admit c.cfg replay)
  in
  QCheck2.Test.check_exn
    ~rand:(Random.State.make [| 23 |])
    (QCheck2.Test.make ~count:1500 ~name:"admit matches the reference"
       ~print:print_admission_case gen_admission_case agrees);
  Alcotest.(check bool) "cases reach WFQ evictions" true (!evictions > 0);
  Alcotest.(check bool) "cases reach breaker rejections" true
    (!rejections > 0);
  Alcotest.(check bool) "cases reach degraded arrivals" true (!degraded > 0)

let test_degradation_window_edge () =
  (* one failure finishing at 10 and a 20-cycle window: an arrival at
     29 still sees it, an arrival at exactly 30 does not *)
  let cfg =
    {
      Server.Dispatch.default with
      Server.Dispatch.degradation =
        Some { Server.Dispatch.window = 20.; storm_failures = 1; reserve = 0.5 };
    }
  in
  let at arrival =
    [
      mk_outcome ~sid:0 ~client:1 ~paying:false ~arrival:0. ~svc:10.
        ~verdict:crash;
      mk_outcome ~sid:1 ~client:2 ~paying:false ~arrival ~svc:10. ~verdict:ok;
    ]
  in
  List.iter
    (fun (arrival, degraded) ->
      let d = Server.Dispatch.admit cfg (at arrival) in
      Alcotest.(check int)
        (Printf.sprintf "degraded arrivals, second at %.0f" arrival)
        degraded d.Server.Dispatch.degraded;
      Alcotest.(check bool) "same as the reference" true
        (admission_view d = admission_view (Dispatch_ref.admit cfg (at arrival))))
    [ (29., 1); (30., 0) ]

let test_serve_result_is_small () =
  let t = Harness.Serve.run ~backend:bc_backend () in
  let bytes = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8) in
  Alcotest.(check int) "default schedule ran" 1300
    t.Harness.Serve.summary.Server.Metrics.sessions;
  if bytes >= 16 * 1024 then
    Alcotest.failf "a default serve result holds %d bytes (bound 16 KiB)"
      bytes

let test_admit_allocation_per_session () =
  let tenants = Server.Tenant.fleet ~root:Server.Traffic.default.root () in
  let specs = Server.Traffic.generate Server.Traffic.default tenants in
  let executed, _ = Server.Dispatch.execute ~backend:bc_backend tenants specs in
  (* the heap counters are exact only right after a minor collection *)
  let words () =
    Gc.minor ();
    Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)
  in
  let before = words () in
  let d = Server.Dispatch.admit Server.Dispatch.default executed in
  let per_session =
    (words () -. before) /. float_of_int (List.length executed)
  in
  Alcotest.(check bool) "default schedule queues" true
    (d.Server.Dispatch.peak_open > Server.Dispatch.default.virtual_workers);
  if per_session >= 64. then
    Alcotest.failf "admit allocates %.1f words per session (bound 64)"
      per_session

(* Each tenant's applied owns its bytecode runner, so a serve run loads
   one per tenant: 9 for the default fleet in one domain, at most two
   per tenant when two domains race on the first load.  A backend
   loaded per session instead reads hundreds.  Attack sessions re-run
   on the reference backend, which this counter does not see. *)
let test_one_load_per_tenant () =
  let loads jobs =
    let n = Atomic.make 0 in
    let counting =
      Machine.Backend.make ~kind:Machine.Backend.Bytecode ~label:"bytecode"
        ~load:(fun prog ->
          Atomic.incr n;
          bc_backend.load prog)
    in
    let config =
      {
        Harness.Serve.default with
        Harness.Serve.traffic = { Server.Traffic.default with sessions = 400 };
      }
    in
    let t =
      Sched.Pool.with_pool ~jobs (fun pool ->
          Harness.Serve.run ~pool ~backend:counting ~config ())
    in
    Alcotest.(check int) "fleet" 9 t.Harness.Serve.fleet;
    Atomic.get n
  in
  Alcotest.(check int) "loads at --jobs 1" 9 (loads 1);
  let two = loads 2 in
  if two < 9 || two > 18 then
    Alcotest.failf "%d loads at --jobs 2 (want 9 to 18)" two

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "traffic",
        [
          Alcotest.test_case "replays over 120 roots" `Quick
            test_traffic_replays_over_100_roots;
          Alcotest.test_case "schedule shape" `Quick test_traffic_shape;
          Alcotest.test_case "pooled draw matches sequential" `Quick
            test_traffic_pooled_matches_sequential;
        ] );
      ( "queue",
        [
          Alcotest.test_case "invariants" `Quick test_queue_invariants;
          Alcotest.test_case "backpressure sheds" `Quick
            test_backpressure_sheds_under_overload;
        ] );
      ( "security",
        [
          Alcotest.test_case "batch verdicts reproduced" `Quick
            test_served_attacks_match_batch_verdicts;
          Alcotest.test_case "summary accounting" `Quick
            test_summary_accounting;
        ] );
      ( "policy",
        [
          Alcotest.test_case "breaker open/half-open/quarantine" `Quick
            test_breaker_open_half_open_quarantine;
          Alcotest.test_case "half-open probe success closes" `Quick
            test_breaker_probe_success_closes;
          Alcotest.test_case "affinity off admits everything" `Quick
            test_affinity_off_admits_everything;
          Alcotest.test_case "brute cost imposes backoff" `Quick
            test_brute_cost_imposes_backoff;
          Alcotest.test_case "brute cost quarantines" `Quick
            test_brute_cost_quarantines_persistent_failures;
        ] );
      ( "storm",
        [
          Alcotest.test_case "deterministic, bounded windows" `Quick
            test_storm_deterministic_and_bounded;
          Alcotest.test_case "census shift" `Quick test_storm_shifts_the_census;
          Alcotest.test_case "client identity stable" `Quick
            test_client_identity_is_stable;
        ] );
      ( "control-plane",
        [
          Alcotest.test_case "wfq sheds by class" `Quick
            test_wfq_sheds_by_class;
          Alcotest.test_case "fcfs sheds blindly" `Quick
            test_fcfs_sheds_blindly;
          Alcotest.test_case "breakers reject through dispatch" `Quick
            test_breakers_reject_through_dispatch;
          Alcotest.test_case "degradation starves suspects" `Quick
            test_degradation_starves_suspects;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "104 roots, engines x widths" `Quick
            test_replay_identical_across_engines_and_widths;
          Alcotest.test_case "104 roots, policy control plane" `Quick
            test_policy_replay_identical_across_engines_and_widths;
          Alcotest.test_case "full E15 report" `Quick
            test_full_harness_report_identical;
          Alcotest.test_case "shared lazy program on a pool" `Quick
            test_shared_lazy_program_dispatch;
        ] );
      ( "admission",
        [
          Alcotest.test_case "matches reference on random configs" `Quick
            test_admit_matches_reference;
          Alcotest.test_case "serve result keeps only its report" `Quick
            test_serve_result_is_small;
          Alcotest.test_case "admit allocation per session" `Quick
            test_admit_allocation_per_session;
          Alcotest.test_case "degradation window edge" `Quick
            test_degradation_window_edge;
        ] );
      ( "engine",
        [
          Alcotest.test_case "one bytecode load per tenant" `Quick
            test_one_load_per_tenant;
        ] );
    ]

type config = {
  traffic : Server.Traffic.config;
  baseline : Server.Dispatch.config;
  resilient : Server.Dispatch.config;
  defense : Defenses.Defense.t;
  budget : int;
  gap : float;
}

let default =
  let sessions = 1000 in
  let root = 11L in
  {
    traffic =
      {
        Server.Traffic.default with
        Server.Traffic.sessions;
        root;
        (* slower than the E15 overload regime: the fleet keeps up, so
           completions feed breaker state back before the same client's
           next arrival — the closed-loop regime affinity needs *)
        mean_gap = 4000;
        storm =
          Some
            (Fault.Storm.plan ~attack_pct:40 ~chaos_pct:40 ~root ~sessions ());
      };
    baseline = Server.Dispatch.default;
    resilient =
      {
        Server.Dispatch.default with
        Server.Dispatch.discipline = Server.Dispatch.Wfq;
        policy =
          Some
            {
              Server.Policy.affinity = true;
              (* hotter than the serve default: one detection trips, and
                 the first backoff outlasts an attacker's storm-burst
                 inter-arrival so rejections actually land *)
              breaker =
                {
                  Server.Policy.failures = 1;
                  base_backoff = 150_000.;
                  factor = 4.;
                  max_backoff = 5e6;
                  max_trips = 2;
                };
            };
        degradation =
          Some
            {
              Server.Dispatch.window = 400_000.;
              storm_failures = 4;
              reserve = 0.5;
            };
      };
    defense = Defenses.Defense.Smokestack Smokestack.Config.default;
    budget = 4000;
    gap = 1000.;
  }

type cost_row = {
  rtarget : string;
  rkind : string;
  predicted : float option;
  off : Server.Policy.cost;
  on_ : Server.Policy.cost;
  higher : bool;
}

type fleet_cell = {
  cname : string;
  dispatch : Server.Dispatch.t;
  summary : Server.Metrics.summary;
  benign_p99 : float;
}

type t = {
  config : config;
  scheduled : int * int * int;
  storm_sessions : int;
  cost_rows : cost_row list;
  hand_higher : bool;
  synth_higher : bool;
  cells : fleet_cell list;
  benign_p99_ratio : float;
  mismatches : int;
}

(* Strictly-higher comparison of the two cost walks.  A finite on-cost
   is compared numerically; quarantine or budget exhaustion on the
   affinity side beats any finite off-cost; an off-cost that itself
   never landed within budget cannot honestly be called cheaper. *)
let strictly_higher ~(off : Server.Policy.cost) ~(on_ : Server.Policy.cost) =
  match (off.Server.Policy.virtual_cost, on_.Server.Policy.virtual_cost) with
  | Some a, Some b -> b > a
  | Some _, None -> true
  | None, _ -> false

let hardened_config (d : Defenses.Defense.t) =
  match d with Defenses.Defense.Smokestack c -> Some c | _ -> None

let predicted_attempts hardened func =
  match Smokestack.Pbox.binding hardened.Smokestack.Harden.pbox func with
  | Some b ->
      Some
        (Smokestack.Entropy_an.of_binding hardened.Smokestack.Harden.pbox b)
          .Smokestack.Entropy_an.expected_bruteforce_attempts
  | None -> None

let cost_corpus ~pool ~backend config =
  let policy_on =
    match config.resilient.Server.Dispatch.policy with
    | Some p -> p
    | None -> Server.Policy.default
  in
  let policy_off = { policy_on with Server.Policy.affinity = false } in
  let targets =
    List.filter
      (fun (v : Apps.Synth.variant) -> v.location = `Stack)
      Apps.Synth.variants
  in
  let rows =
    Sched.Pool.run_all pool
      (List.map
         (fun (v : Apps.Synth.variant) ->
           Sched.Job.v ~id:("resilience/" ^ v.vname) ~seed:3L (fun () ->
               let prog = Lazy.force v.program in
               let applied =
                 Defenses.Defense.apply ~seed:3L config.defense prog
               in
               let hardened =
                 Smokestack.Harden.harden ~seed:3L
                   (match hardened_config config.defense with
                   | Some c -> c
                   | None -> Smokestack.Config.default)
                   prog
               in
               let mk ~kind ~func verdicts =
                 let off =
                   Server.Policy.brute_cost policy_off ~gap:config.gap verdicts
                 in
                 let on_ =
                   Server.Policy.brute_cost policy_on ~gap:config.gap verdicts
                 in
                 {
                   rtarget = v.vname;
                   rkind = kind;
                   predicted = predicted_attempts hardened func;
                   off;
                   on_;
                   higher = strictly_higher ~off ~on_;
                 }
               in
               let hand_func =
                 match Smokestack.Harden.permuted_functions hardened with
                 | f :: _ -> f
                 | [] -> "main"
               in
               let hand_row =
                 let verdicts =
                   (* the walk Harness.Offense brute forces the
                      hand-written attacks with *)
                   (Attacks.Bruteforce.run ~max_attempts:config.budget (fun seed ->
                        (v.attack ~backend applied ~seed:(Int64.of_int seed)).verdict))
                     .verdicts
                 in
                 mk ~kind:"hand-written" ~func:hand_func verdicts
               in
               let synth_rows =
                 let _, chains =
                   Dopc.Plan.synthesize ~max_chains:4 ~target:v.vname prog
                 in
                 match List.find_opt Dopc.Chain.strong_goal chains with
                 | None -> []
                 | Some chain ->
                     let verdicts =
                       Dopc.Exec.brute ~backend applied chain ~budget:config.budget ~seed0:0
                     in
                     [
                       mk
                         ~kind:
                           (Printf.sprintf "synthesized %s #%s"
                              (Dopc.Chain.family_to_string
                                 chain.Dopc.Chain.family)
                              chain.Dopc.Chain.chain_id)
                         ~func:chain.Dopc.Chain.func verdicts;
                     ]
               in
               hand_row :: synth_rows))
         targets)
  in
  List.concat rows

let benign_p99 (d : Server.Dispatch.t) =
  let sojourns =
    List.filter_map
      (fun (s : Server.Dispatch.served) ->
        match
          s.Server.Dispatch.outcome.Server.Session.spec.Server.Session.kind
        with
        | Server.Session.Benign _ -> Some (Server.Dispatch.sojourn s)
        | _ -> None)
      d.Server.Dispatch.served
    |> Array.of_list
  in
  Array.sort compare sojourns;
  Server.Metrics.percentile sojourns 99.

let run ?(pool = Sched.Pool.sequential) ~backend () =
  let config = default in
  (* the elision oracle behind Config.selective lives in lib/analysis;
     chain synthesis probes want it installed like E17 does *)
  Analysis.Validate.install ();
  let tenants =
    Server.Tenant.fleet ~defense:config.defense
      ~root:config.traffic.Server.Traffic.root ()
  in
  let specs = Server.Traffic.generate ~pool config.traffic tenants in
  (* execute once — admission policy never changes a session's verdict
     or service time, so every cell below replays the same outcomes *)
  let executed, dropped =
    Server.Dispatch.execute ~pool ~backend ~config:config.baseline tenants
      specs
  in
  let cell cname cfg =
    let dispatch = Server.Dispatch.admit ~dropped cfg executed in
    {
      cname;
      dispatch;
      summary = Server.Metrics.of_dispatch dispatch;
      benign_p99 = benign_p99 dispatch;
    }
  in
  let baseline = cell "fcfs baseline (affinity off)" config.baseline in
  let resilient = cell "wfq + breakers + degradation" config.resilient in
  let cost_rows = cost_corpus ~pool ~backend config in
  let is_hand r = String.equal r.rkind "hand-written" in
  {
    config;
    scheduled = Server.Traffic.census specs;
    storm_sessions =
      (match config.traffic.Server.Traffic.storm with
      | Some s -> Fault.Storm.storm_sessions s
      | None -> 0);
    cost_rows;
    hand_higher = List.exists (fun r -> is_hand r && r.higher) cost_rows;
    synth_higher =
      List.exists (fun r -> (not (is_hand r)) && r.higher) cost_rows;
    cells = [ baseline; resilient ];
    benign_p99_ratio =
      (if baseline.benign_p99 <= 0. then 1.
       else resilient.benign_p99 /. baseline.benign_p99);
    mismatches =
      List.fold_left
        (fun acc c -> acc + c.summary.Server.Metrics.batch_mismatches)
        0
        [ baseline; resilient ];
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let fmt_cost (c : Server.Policy.cost) =
  match c.Server.Policy.virtual_cost with
  | Some v -> Server.Metrics.fmt_cycles v
  | None when c.Server.Policy.quarantined_at <> None -> "quarantined"
  | None -> "budget out"

let cost_table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("target", Left);
            ("attack", Left);
            ("predicted", Right);
            ("attempts off/on", Right);
            ("cost off", Right);
            ("cost on", Right);
            ("imposed backoff", Right);
            ("higher", Left);
          ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          r.rtarget;
          r.rkind;
          (match r.predicted with
          | Some p -> Printf.sprintf "%.0f" p
          | None -> "-");
          Printf.sprintf "%d/%d" r.off.Server.Policy.attempts
            r.on_.Server.Policy.attempts;
          fmt_cost r.off;
          fmt_cost r.on_;
          Server.Metrics.fmt_cycles r.on_.Server.Policy.added_delay;
          (if r.higher then "yes" else "no");
        ])
    t.cost_rows;
  tbl

let fleet_table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("fleet", Left);
            ("served", Right);
            ("shed", Right);
            ("rejected", Right);
            ("attacks admitted", Right);
            ("quarantined", Right);
            ("degraded", Right);
            ("benign p99", Right);
            ("mismatches", Right);
          ]
  in
  List.iter
    (fun c ->
      Sutil.Texttable.add_row tbl
        [
          c.cname;
          string_of_int c.summary.Server.Metrics.served;
          string_of_int c.summary.Server.Metrics.shed;
          string_of_int c.summary.Server.Metrics.rejected;
          string_of_int c.summary.Server.Metrics.attacks_admitted;
          string_of_int c.summary.Server.Metrics.quarantined_clients;
          string_of_int c.summary.Server.Metrics.degraded;
          Server.Metrics.fmt_cycles c.benign_p99;
          string_of_int c.summary.Server.Metrics.batch_mismatches;
        ])
    t.cells;
  tbl

let class_table t =
  match List.rev t.cells with
  | resilient :: _ -> Server.Metrics.class_table resilient.dispatch
  | [] -> Server.Metrics.class_table (Server.Dispatch.admit default.baseline [])

let output t =
  let benign, attack, chaos = t.scheduled in
  [
    Output.text
      "E18: resilient control plane — breakers, classes and degradation under a fault storm";
    Output.text
      "%d sessions (%d benign, %d attack, %d chaos; %d inside storm bursts), %d attacker clients \
       over %d; brute budget %d, attempt gap %.0f cycles."
      t.config.traffic.Server.Traffic.sessions benign attack chaos t.storm_sessions
      t.config.traffic.Server.Traffic.attackers t.config.traffic.Server.Traffic.clients
      t.config.budget t.config.gap;
    Output.table "resilience"
      "E18: brute-force cost, affinity off vs on (per attack family, vs full hardening)"
      (cost_table t);
    Output.table "resilience_fleet" "E18: fleet under the storm, baseline vs control plane"
      (fleet_table t);
    Output.table "resilience_classes" "E18: per-class service in the resilient cell" (class_table t);
    Output.text
      "hand-written family costs strictly more with breakers: %b; synthesized family: %b; \
       benign p99 ratio (resilient/baseline): %.3f; batch mismatches across cells: %d."
      t.hand_higher t.synth_higher t.benign_p99_ratio t.mismatches;
  ]

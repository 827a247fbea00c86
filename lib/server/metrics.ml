type summary = {
  sessions : int;
  served : int;
  shed : int;
  rejected : int;
  dropped : int;
  benign : int;
  attacks : int;
  chaos : int;
  requests : int;
  total_cycles : float;
  makespan : float;
  rps : float;
  p50 : float;
  p95 : float;
  p99 : float;
  mean_wait : float;
  shed_rate : float;
  drop_rate : float;
  attack_sessions : int;
  attacks_admitted : int;
  detected : int;
  successes : int;
  detection_rate : float;
  batch_checked : int;
  batch_mismatches : int;
  chaos_fired : int;
  peak_open : int;
  degraded : int;
  rejected_backoff : int;
  rejected_quarantine : int;
  breaker_trips : int;
  quarantined_clients : int;
  policy_delay : float;
}

(* Nearest-rank percentile over a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* The virtual clock ticks VM cycles; reporting throughput as
   requests/sec prices them at a nominal 1 GHz, the same convention the
   overhead experiments use for cycle counts.  Wall-clock throughput is
   a property of the host and goes to stderr, never into the report. *)
let ghz = 1e9

let succeeded (o : Session.outcome) =
  match o.Session.verdict with Attacks.Verdict.Success -> true | _ -> false

let of_dispatch (d : Dispatch.t) =
  let executed =
    List.map (fun (s : Dispatch.served) -> s.Dispatch.outcome) d.Dispatch.served
    @ List.map fst d.Dispatch.shed
    @ List.map fst d.Dispatch.rejected
  in
  let count p l = List.length (List.filter p l) in
  let kind_is k (o : Session.outcome) =
    String.equal (Session.kind_label o.Session.spec.Session.kind) k
  in
  let attacks_x = List.filter (kind_is "attack") executed in
  let sojourns =
    Array.of_list (List.map Dispatch.sojourn d.Dispatch.served)
  in
  Array.sort Float.compare sojourns;
  let served = List.length d.Dispatch.served in
  let shed = List.length d.Dispatch.shed in
  let rejected = List.length d.Dispatch.rejected in
  let dropped = List.length d.Dispatch.dropped in
  let sessions = served + shed + rejected + dropped in
  let admission = served + shed + rejected in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l in
  let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let pstats = d.Dispatch.policy in
  {
    sessions;
    served;
    shed;
    rejected;
    dropped;
    benign = count (kind_is "benign") executed;
    attacks = List.length attacks_x;
    chaos = count (kind_is "chaos") executed;
    requests =
      sumi
        (fun (s : Dispatch.served) -> s.Dispatch.outcome.Session.requests)
        d.Dispatch.served;
    total_cycles =
      sum
        (fun (s : Dispatch.served) -> s.Dispatch.outcome.Session.service_cycles)
        d.Dispatch.served;
    makespan = d.Dispatch.makespan;
    rps =
      (if d.Dispatch.makespan <= 0. then 0.
       else float_of_int served *. ghz /. d.Dispatch.makespan);
    p50 = percentile sojourns 50.;
    p95 = percentile sojourns 95.;
    p99 = percentile sojourns 99.;
    mean_wait =
      (if served = 0 then 0.
       else sum Dispatch.wait d.Dispatch.served /. float_of_int served);
    shed_rate =
      (if admission = 0 then 0.
       else float_of_int shed /. float_of_int admission);
    drop_rate =
      (if sessions = 0 then 0.
       else float_of_int dropped /. float_of_int sessions);
    attack_sessions = List.length attacks_x;
    attacks_admitted =
      count
        (fun (s : Dispatch.served) -> kind_is "attack" s.Dispatch.outcome)
        d.Dispatch.served
      + count (fun (o, _) -> kind_is "attack" o) d.Dispatch.shed;
    detected = count Session.detected attacks_x;
    successes = count succeeded attacks_x;
    detection_rate =
      (if attacks_x = [] then 0.
       else
         float_of_int (count Session.detected attacks_x)
         /. float_of_int (List.length attacks_x));
    batch_checked =
      count
        (fun (o : Session.outcome) -> Option.is_some o.Session.batch_match)
        executed;
    batch_mismatches =
      count
        (fun (o : Session.outcome) ->
          match o.Session.batch_match with Some false -> true | _ -> false)
        executed;
    chaos_fired = sumi (fun (o : Session.outcome) -> o.Session.fired) executed;
    peak_open = d.Dispatch.peak_open;
    degraded = d.Dispatch.degraded;
    rejected_backoff =
      (match pstats with Some p -> p.Policy.rejected_backoff | None -> 0);
    rejected_quarantine =
      (match pstats with Some p -> p.Policy.rejected_quarantine | None -> 0);
    breaker_trips =
      (match pstats with Some p -> p.Policy.breaker_trips | None -> 0);
    quarantined_clients =
      (match pstats with
      | Some p -> List.length p.Policy.quarantined
      | None -> 0);
    policy_delay =
      (match pstats with Some p -> p.Policy.added_delay | None -> 0.);
  }

let fmt_cycles c =
  if c >= 1e6 then Printf.sprintf "%.2fM" (c /. 1e6)
  else if c >= 1e3 then Printf.sprintf "%.1fk" (c /. 1e3)
  else Printf.sprintf "%.0f" c

let table s =
  let tbl =
    Sutil.Texttable.create
      ~columns:Sutil.Texttable.[ ("metric", Left); ("value", Right) ]
  in
  let row k v = Sutil.Texttable.add_row tbl [ k; v ] in
  row "sessions" (string_of_int s.sessions);
  row "served" (string_of_int s.served);
  row "shed" (string_of_int s.shed);
  row "rejected (breaker)" (string_of_int s.rejected);
  row "dropped" (string_of_int s.dropped);
  row "mix benign/attack/chaos"
    (Printf.sprintf "%d/%d/%d" s.benign s.attacks s.chaos);
  row "requests served" (string_of_int s.requests);
  row "peak concurrent sessions" (string_of_int s.peak_open);
  row "throughput (rps @1GHz)" (Printf.sprintf "%.0f" s.rps);
  row "latency p50 (cycles)" (fmt_cycles s.p50);
  row "latency p95 (cycles)" (fmt_cycles s.p95);
  row "latency p99 (cycles)" (fmt_cycles s.p99);
  row "mean queue wait (cycles)" (fmt_cycles s.mean_wait);
  row "shed rate" (Sutil.Texttable.fmt_pct (100. *. s.shed_rate));
  row "drop rate" (Sutil.Texttable.fmt_pct (100. *. s.drop_rate));
  row "degraded arrivals" (string_of_int s.degraded);
  row "attack sessions" (string_of_int s.attack_sessions);
  row "attack sessions admitted" (string_of_int s.attacks_admitted);
  row "detected" (string_of_int s.detected);
  row "attack successes" (string_of_int s.successes);
  row "detection rate" (Sutil.Texttable.fmt_pct (100. *. s.detection_rate));
  row "batch-verdict mismatches"
    (Printf.sprintf "%d/%d" s.batch_mismatches s.batch_checked);
  row "chaos injections fired" (string_of_int s.chaos_fired);
  if s.rejected > 0 || s.breaker_trips > 0 || s.quarantined_clients > 0 then begin
    row "breaker trips" (string_of_int s.breaker_trips);
    row "rejected backoff/quarantine"
      (Printf.sprintf "%d/%d" s.rejected_backoff s.rejected_quarantine);
    row "quarantined clients" (string_of_int s.quarantined_clients);
    row "imposed backoff delay (cycles)" (fmt_cycles s.policy_delay)
  end;
  tbl

let class_table (d : Dispatch.t) =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("class", Left);
            ("served", Right);
            ("shed", Right);
            ("rejected", Right);
            ("p50", Right);
            ("p95", Right);
            ("p99", Right);
            ("mean wait", Right);
          ]
  in
  let same_cls a b = Policy.cls_rank a = Policy.cls_rank b in
  List.iter
    (fun cls ->
      let served =
        List.filter
          (fun (s : Dispatch.served) -> same_cls s.Dispatch.cls cls)
          d.Dispatch.served
      in
      let shed = List.filter (fun (_, c) -> same_cls c cls) d.Dispatch.shed in
      (* breaker rejections are by construction suspect-class: only a
         client with failure history has a non-closed breaker *)
      let rejected =
        match cls with
        | Policy.Suspect -> List.length d.Dispatch.rejected
        | Policy.Paying | Policy.Standard -> 0
      in
      let sojourns = Array.of_list (List.map Dispatch.sojourn served) in
      Array.sort Float.compare sojourns;
      let n = List.length served in
      let mean_wait =
        if n = 0 then 0.
        else
          List.fold_left (fun acc s -> acc +. Dispatch.wait s) 0. served
          /. float_of_int n
      in
      Sutil.Texttable.add_row tbl
        [
          Policy.cls_label cls;
          string_of_int n;
          string_of_int (List.length shed);
          string_of_int rejected;
          fmt_cycles (percentile sojourns 50.);
          fmt_cycles (percentile sojourns 95.);
          fmt_cycles (percentile sojourns 99.);
          fmt_cycles mean_wait;
        ])
    [ Policy.Paying; Policy.Standard; Policy.Suspect ];
  tbl

type tenant_counts = {
  mutable t_served : int;
  mutable t_shed : int;
  mutable t_requests : int;
  mutable t_attacks : int;
  mutable t_detected : int;
  mutable t_success : int;
}

let tenant_table tenants (d : Dispatch.t) =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("tenant", Left);
            ("defense", Left);
            ("served", Right);
            ("shed", Right);
            ("requests", Right);
            ("attacks", Right);
            ("detected", Right);
            ("success", Right);
          ]
  in
  (* one pass over the sessions into per-tenant counters *)
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (t : Tenant.t) ->
      Hashtbl.replace counts t.Tenant.id
        {
          t_served = 0;
          t_shed = 0;
          t_requests = 0;
          t_attacks = 0;
          t_detected = 0;
          t_success = 0;
        })
    tenants;
  let tally (o : Session.outcome) f =
    match Hashtbl.find_opt counts o.Session.spec.Session.tenant.Tenant.id with
    | None -> ()
    | Some c ->
        f c;
        (match o.Session.spec.Session.kind with
        | Session.Attack _ ->
            c.t_attacks <- c.t_attacks + 1;
            if Session.detected o then c.t_detected <- c.t_detected + 1;
            if succeeded o then c.t_success <- c.t_success + 1
        | Session.Benign _ | Session.Chaotic _ -> ())
  in
  List.iter
    (fun (s : Dispatch.served) ->
      let o = s.Dispatch.outcome in
      tally o (fun c ->
          c.t_served <- c.t_served + 1;
          c.t_requests <- c.t_requests + o.Session.requests))
    d.Dispatch.served;
  List.iter (fun (o, _) -> tally o (fun c -> c.t_shed <- c.t_shed + 1))
    d.Dispatch.shed;
  List.iter (fun (o, _) -> tally o ignore) d.Dispatch.rejected;
  List.iter
    (fun (t : Tenant.t) ->
      let c = Hashtbl.find counts t.Tenant.id in
      Sutil.Texttable.add_row tbl
        [
          t.Tenant.name;
          Defenses.Defense.name t.Tenant.defense;
          string_of_int c.t_served;
          string_of_int c.t_shed;
          string_of_int c.t_requests;
          string_of_int c.t_attacks;
          string_of_int c.t_detected;
          string_of_int c.t_success;
        ])
    tenants;
  tbl

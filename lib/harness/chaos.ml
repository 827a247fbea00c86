type row = {
  cworkload : string;
  cspec : string;
  cfamily : string;
  coutcome : string;
  cfired : int;
  ccaught : bool;
  cdegradations : string list;
  cengines_agree : bool;
  cclean : bool;
  ccorrupting : bool;
}

type policy_row = {
  ppolicy : string;
  poutcome : string;
  pdegradations : string list;
  pscore : float;
}

type t = {
  rows : row list;
  caught : int;
  corrupting_fired : int;
  detection_rate : float;
  policy : policy_row list;
}

let plan_of_spec s =
  match Fault.Plan.of_spec s with
  | Ok p -> p
  | Error e -> failwith ("Harness.Chaos: bad built-in plan spec: " ^ e)

let plans =
  List.map plan_of_spec
    [
      "rng:ones@1";
      "rng:stuck=0xdeadbeef@4";
      "rng:bias=8@1";
      "rng:lat=250@1";
      "rng:off@3";
      "mem:stack:64:3@2000";
      "mem:data:16:1@1500";
      "intr:ss.fid_assert:xor=1@1";
      "rng:ones@never";
      "mem:stack:64:3@never";
    ]

let default_workloads = [ "mcf"; "proftpd-io" ]

(* Everything a run exposes; two runs with equal [obs] are
   observationally identical. *)
type obs = {
  o_outcome : Machine.Exec.outcome;
  o_output : string;
  o_cycles : float;
  o_instrs : int;
  o_fired : int;
  o_degr : string list;
}

let same_obs a b =
  String.equal
    (Machine.Exec.outcome_to_string a.o_outcome)
    (Machine.Exec.outcome_to_string b.o_outcome)
  && String.equal a.o_output b.o_output
  && Float.equal a.o_cycles b.o_cycles
  && a.o_instrs = b.o_instrs

(* One hardened run of [w], optionally with [plan] armed.  The
   generator is caller-visible state (degradations, tamper), so the
   chaos harness drives the run by hand instead of going through
   [Workbench.run] (which also raises on any non-clean exit — here
   faults and detections are the data). *)
let observe ?plan ~policy ~scheme ~backend ~seed (w : Apps.Spec.workload) =
  let config = Smokestack.Config.with_scheme scheme Smokestack.Config.default in
  let h = Smokestack.Harden.harden ~seed:3L config (Lazy.force w.program) in
  let entropy = Crypto.Entropy.create ~seed in
  let gen = Rng.Generator.create ~policy scheme ~entropy in
  let st = Smokestack.Harden.prepare ~entropy ~gen h in
  let armed = Option.map (fun p -> Fault.Inject.arm ~gen p st) plan in
  let chunks = ref (Workbench.chunks_of_input w.input) in
  Machine.Exec.set_input st (fun _ max ->
      match !chunks with
      | [] -> ""
      | c :: rest ->
          chunks := rest;
          if String.length c > max then String.sub c 0 max else c);
  let outcome, stats = backend.Machine.Backend.run ~fuel:400_000_000 st in
  {
    o_outcome = outcome;
    o_output = stats.Machine.Exec.output;
    o_cycles = stats.Machine.Exec.cycles;
    o_instrs = stats.Machine.Exec.instr_count;
    o_fired = (match armed with Some a -> Fault.Inject.fired a | None -> 0);
    o_degr =
      List.map Rng.Generator.degradation_to_string
        (Rng.Generator.degradations gen);
  }

let scheme_for (plan : Fault.Plan.t) =
  match plan.site with
  | Fault.Plan.Rng _ -> Rng.Scheme.Rdrand
  | Fault.Plan.Mem_flip _ | Fault.Plan.Intrinsic _ ->
      Smokestack.Config.(default.scheme)

let corrupting (plan : Fault.Plan.t) =
  match plan.site with
  | Fault.Plan.Rng (Fault.Plan.Latency _) -> false
  | Fault.Plan.Rng _ | Fault.Plan.Mem_flip _ | Fault.Plan.Intrinsic _ -> true

let cell ~seed ~(plan : Fault.Plan.t) (w : Apps.Spec.workload) =
  let scheme = scheme_for plan in
  let policy = Rng.Generator.Fail_secure in
  let bytecode = Machine.Backend.find Machine.Backend.Bytecode in
  let faulted_ref =
    observe ~plan ~policy ~scheme ~backend:Machine.Backend.reference ~seed w
  in
  let faulted_bc = observe ~plan ~policy ~scheme ~backend:bytecode ~seed w in
  let clean_ref =
    observe ~policy ~scheme ~backend:Machine.Backend.reference ~seed w
  in
  let agree =
    same_obs faulted_ref faulted_bc
    && faulted_ref.o_fired = faulted_bc.o_fired
    && faulted_ref.o_degr = faulted_bc.o_degr
  in
  let clean = same_obs faulted_ref clean_ref && faulted_ref.o_degr = [] in
  if plan.trigger = Fault.Plan.Never && not clean then
    failwith
      (Printf.sprintf
         "Harness.Chaos: %s on %s: a never-firing plan changed the run's \
          observables"
         (Fault.Plan.to_spec plan) w.wname);
  let caught =
    (match faulted_ref.o_outcome with
    | Machine.Exec.Detected _ -> true
    | _ -> false)
    || faulted_ref.o_degr <> []
  in
  {
    cworkload = w.wname;
    cspec = Fault.Plan.to_spec plan;
    cfamily = Fault.Plan.family plan;
    coutcome = Machine.Exec.outcome_to_string faulted_ref.o_outcome;
    cfired = faulted_ref.o_fired;
    ccaught = caught;
    cdegradations = faulted_ref.o_degr;
    cengines_agree = agree;
    cclean = clean;
    ccorrupting = corrupting plan;
  }

(* Fail-secure vs fail-open on the stuck-at-all-ones plan: what the
   attacker faces after each policy's degradation.  Fail-secure falls
   back to AES-10, so the expected brute-force cost of a permuted
   frame is unchanged; fail-open falls back to the memory-resident
   pseudo scheme, whose state-disclosure attack (E10) finds the layout
   in one attempt. *)
let policy_rows ~seed (w : Apps.Spec.workload) =
  let plan = plan_of_spec "rng:ones@1" in
  let secure_score =
    let config =
      Smokestack.Config.with_scheme Rng.Scheme.aes10 Smokestack.Config.default
    in
    let h = Smokestack.Harden.harden ~seed:3L config (Lazy.force w.program) in
    match Smokestack.Harden.permuted_functions h with
    | [] -> 1.
    | fn :: _ -> (
        match Smokestack.Pbox.binding h.Smokestack.Harden.pbox fn with
        | Some b ->
            (Smokestack.Entropy_an.of_binding h.Smokestack.Harden.pbox b)
              .Smokestack.Entropy_an.expected_bruteforce_attempts
        | None -> 1.)
  in
  List.map
    (fun policy ->
      let o =
        observe ~plan ~policy ~scheme:Rng.Scheme.Rdrand
          ~backend:Machine.Backend.reference ~seed w
      in
      {
        ppolicy =
          (match policy with
          | Rng.Generator.Fail_secure -> "fail-secure"
          | Rng.Generator.Fail_open -> "fail-open");
        poutcome = Machine.Exec.outcome_to_string o.o_outcome;
        pdegradations = o.o_degr;
        pscore =
          (match policy with
          | Rng.Generator.Fail_secure -> secure_score
          | Rng.Generator.Fail_open -> 1.);
      })
    [ Rng.Generator.Fail_secure; Rng.Generator.Fail_open ]

let run ?(pool = Sched.Pool.sequential) ?(workloads = default_workloads)
    ?(seed = 7L) () =
  let ws =
    List.map
      (fun name ->
        match Apps.Spec.find name with
        | Some w -> w
        | None -> failwith ("Harness.Chaos: unknown workload " ^ name))
      workloads
  in
  Workbench.force_programs ws;
  let jobs =
    List.concat_map
      (fun (w : Apps.Spec.workload) ->
        List.map
          (fun plan ->
            let id =
              Printf.sprintf "chaos/%s/%s" w.wname (Fault.Plan.to_spec plan)
            in
            Sched.Job.seeded ~root:seed ~id (fun ~seed -> cell ~seed ~plan w))
          plans)
      ws
  in
  let rows = Sched.Pool.run_all pool jobs in
  let policy =
    policy_rows
      ~seed:(Sutil.Simrng.split_seed ~root:seed ~id:"chaos/policy")
      (List.hd ws)
  in
  let counted = List.filter (fun r -> r.ccorrupting && r.cfired > 0) rows in
  let caught = List.length (List.filter (fun r -> r.ccaught) counted) in
  let corrupting_fired = List.length counted in
  {
    rows;
    caught;
    corrupting_fired;
    detection_rate =
      (if corrupting_fired = 0 then 0.
       else float_of_int caught /. float_of_int corrupting_fired);
    policy;
  }

let table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("workload", Left);
            ("plan", Left);
            ("outcome", Left);
            ("fired", Right);
            ("caught", Left);
            ("degradation", Left);
            ("engines", Left);
            ("=clean", Left);
          ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          r.cworkload;
          r.cspec;
          r.coutcome;
          string_of_int r.cfired;
          (if (not r.ccorrupting) || r.cfired = 0 then "-"
           else if r.ccaught then "yes"
           else "NO");
          (match r.cdegradations with
          | [] -> "-"
          | ds -> String.concat "," ds);
          (if r.cengines_agree then "agree" else "DIFF");
          (if r.cclean then "yes" else "no");
        ])
    t.rows;
  tbl

let policy_table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("policy", Left);
            ("outcome", Left);
            ("degradation", Left);
            ("bruteforce attempts", Right);
          ]
  in
  List.iter
    (fun p ->
      Sutil.Texttable.add_row tbl
        [
          p.ppolicy;
          p.poutcome;
          (match p.pdegradations with
          | [] -> "-"
          | ds -> String.concat "," ds);
          Smokestack.Entropy_an.attempts_to_string p.pscore;
        ])
    t.policy;
  tbl

let output t =
  [
    Output.table "chaos" "E13: chaos — seeded fault injection across workloads and engines"
      (table t);
    Output.text "detection: %d/%d corrupting fired plans caught (%.1f%%)" t.caught
      t.corrupting_fired (100. *. t.detection_rate);
    Output.table "chaos_policy" "E13: fail-secure vs fail-open (rng:ones@1, RDRAND source)"
      (policy_table t);
  ]

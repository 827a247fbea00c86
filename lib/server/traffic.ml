type config = {
  sessions : int;
  attack_pct : int;
  chaos_pct : int;
  mean_gap : int;
  root : int64;
  clients : int;
  attackers : int;
  paying_pct : int;
  storm : Fault.Storm.t option;
}

let default =
  {
    sessions = 1300;
    attack_pct = 12;
    chaos_pct = 6;
    mean_gap = 120;
    root = 11L;
    clients = 64;
    attackers = 4;
    paying_pct = 30;
    storm = None;
  }

(* Paying tier is a property of the client, not the session: derive it
   from the client's own keyed seed so every session of client [c]
   agrees.  Attacker-pool clients are never paying. *)
let paying_client c client =
  client >= c.attackers
  && Sutil.Simrng.int
       (Sutil.Simrng.stream ~root:c.root
          ~id:(Printf.sprintf "client-%04d" client))
       ~bound:100
     < c.paying_pct

(* [paying_client] tabulated once per schedule over every client id a
   session can draw (see [session_spec]), rather than once per session. *)
let paying_clients c =
  Array.init
    (max (max 1 c.attackers) (c.attackers + max 1 (c.clients - c.attackers)))
    (paying_client c)

(* RNG-source plans arm as no-ops without a generator handle (the
   session path does not thread one); re-draw until the plan lands on a
   family that actually bites — memory flips or intrinsic corruption. *)
let rec non_rng_plan seed =
  let p = Fault.Plan.random ~seed in
  if String.equal (Fault.Plan.family p) "rng" then
    non_rng_plan (Int64.add seed 0x9E3779B97F4A7C15L)
  else p

(* Session [sid] and the gap before its arrival, drawn from its own
   keyed stream; [arrival] is left at 0 for [generate] to fill in. *)
let session_spec c tenants paying sid =
  let rng =
    Sutil.Simrng.stream ~root:c.root ~id:(Printf.sprintf "session-%06d" sid)
  in
  let attack_pct, chaos_pct =
    match c.storm with
    | None -> (c.attack_pct, c.chaos_pct)
    | Some s -> Fault.Storm.rates_at s sid ~base:(c.attack_pct, c.chaos_pct)
  in
  let tenant = tenants.(Sutil.Simrng.int rng ~bound:(Array.length tenants)) in
  let roll = Sutil.Simrng.int rng ~bound:100 in
  let kind =
    if roll < attack_pct then
      let attacks = tenant.Tenant.app.Apps.Sessions.sattacks in
      let atk =
        List.nth attacks (Sutil.Simrng.int rng ~bound:(List.length attacks))
      in
      Session.Attack atk.Apps.Sessions.aname
    else
      let flow = tenant.Tenant.app.Apps.Sessions.benign rng in
      if roll < attack_pct + chaos_pct then
        Session.Chaotic (flow, non_rng_plan (Sutil.Simrng.next_u64 rng))
      else Session.Benign flow
  in
  (* Attacks come from the small attacker pool (affinity accumulates
     state across their retries); benign and chaos sessions come from
     the general population — infrastructure faults hit anyone, which
     is exactly the breaker-storm pressure degradation must absorb. *)
  let client =
    match kind with
    | Session.Attack _ -> Sutil.Simrng.int rng ~bound:(max 1 c.attackers)
    | Session.Benign _ | Session.Chaotic _ ->
        let benign_pop = max 1 (c.clients - c.attackers) in
        c.attackers + Sutil.Simrng.int rng ~bound:benign_pop
  in
  let sseed = Sutil.Simrng.next_u64 rng in
  let gap = 1 + Sutil.Simrng.int rng ~bound:((2 * c.mean_gap) - 1) in
  ({ Session.sid; tenant; kind; client; paying = paying.(client); sseed; arrival = 0. }, gap)

(* Each session draws only from its own stream, so contiguous sid ranges
   are drawn as independent pool jobs; the arrival times are then one
   sequential prefix sum, the same float additions in the same order as
   a single loop, so the schedule is bit-identical at any pool width. *)
let generate ?(pool = Sched.Pool.sequential) c tenants =
  if tenants = [] then invalid_arg "Server.Traffic.generate: no tenants";
  let tenants = Array.of_list tenants in
  let paying = paying_clients c in
  let n = max 0 c.sessions in
  let ranges = max 1 (min n (Sched.Pool.jobs pool)) in
  let drawn =
    Sched.Pool.run_all pool
      (List.init ranges (fun j ->
           let lo = j * n / ranges and hi = (j + 1) * n / ranges in
           Sched.Job.v ~id:(Printf.sprintf "traffic/%04d" j) (fun () ->
               Array.init (hi - lo) (fun i -> session_spec c tenants paying (lo + i)))))
  in
  let arrival = ref 0. and specs = ref [] in
  List.iter
    (Array.iter (fun ((spec : Session.spec), gap) ->
         arrival := !arrival +. float_of_int gap;
         specs := { spec with arrival = !arrival } :: !specs))
    drawn;
  List.rev !specs

let census specs =
  List.fold_left
    (fun (b, a, ch) (s : Session.spec) ->
      match s.Session.kind with
      | Session.Benign _ -> (b + 1, a, ch)
      | Session.Attack _ -> (b, a + 1, ch)
      | Session.Chaotic _ -> (b, a, ch + 1))
    (0, 0, 0) specs

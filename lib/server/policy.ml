type cls = Paying | Standard | Suspect

let cls_label = function
  | Paying -> "paying"
  | Standard -> "standard"
  | Suspect -> "suspect"

let cls_rank = function Suspect -> 0 | Standard -> 1 | Paying -> 2

type breaker = {
  failures : int;
  base_backoff : float;
  factor : float;
  max_backoff : float;
  max_trips : int;
}

let default_breaker =
  {
    failures = 2;
    base_backoff = 20_000.;
    factor = 2.;
    max_backoff = 5e6;
    max_trips = 3;
  }

type config = { affinity : bool; breaker : breaker }

let default = { affinity = true; breaker = default_breaker }

type state =
  | Closed of int
  | Open of { until : float; trips : int }
  | Half_open of { trips : int }
  | Quarantined

type decision = Admit | Reject_backoff of float | Reject_quarantine

type t = {
  cfg : config;
  table : (int, state) Hashtbl.t;
  mutable rejected_backoff : int;
  mutable rejected_quarantine : int;
  mutable breaker_trips : int;
  mutable added_delay : float;
}

let create cfg =
  {
    cfg;
    table = Hashtbl.create 64;
    rejected_backoff = 0;
    rejected_quarantine = 0;
    breaker_trips = 0;
    added_delay = 0.;
  }

let state_of t ~client =
  match Hashtbl.find_opt t.table client with Some s -> s | None -> Closed 0

let set t client s = Hashtbl.replace t.table client s

let suspect t ~client =
  t.cfg.affinity && match state_of t ~client with Closed 0 -> false | _ -> true

let backoff b trips =
  Float.min b.max_backoff
    (b.base_backoff *. (b.factor ** float_of_int (max 0 (trips - 1))))

let decide t ~client ~now =
  if not t.cfg.affinity then Admit
  else
    match state_of t ~client with
    | Closed _ | Half_open _ -> Admit
    | Quarantined ->
        t.rejected_quarantine <- t.rejected_quarantine + 1;
        Reject_quarantine
    | Open { until; trips } ->
        if now >= until then begin
          (* deadline passed: admit exactly one probe *)
          set t client (Half_open { trips });
          Admit
        end
        else begin
          t.rejected_backoff <- t.rejected_backoff + 1;
          t.added_delay <- t.added_delay +. (until -. now);
          Reject_backoff (until -. now)
        end

let trip t client ~now ~trips =
  let b = t.cfg.breaker in
  if trips > b.max_trips then set t client Quarantined
  else begin
    t.breaker_trips <- t.breaker_trips + 1;
    set t client (Open { until = now +. backoff b trips; trips })
  end

let observe t ~client ~now ~failure =
  if t.cfg.affinity then
    match state_of t ~client with
    | Quarantined -> ()
    | Closed f ->
        if failure then
          if f + 1 >= t.cfg.breaker.failures then trip t client ~now ~trips:1
          else set t client (Closed (f + 1))
        else if f > 0 then set t client (Closed 0)
    | Half_open { trips } ->
        if failure then trip t client ~now ~trips:(trips + 1)
        else set t client (Closed 0)
    | Open { until; trips } ->
        (* a session admitted before the breaker opened just finished;
           a failure extends the open window, a success changes nothing
           (the half-open probe decides recovery) *)
        if failure then
          set t client
            (Open
               {
                 until = Float.max until (now +. backoff t.cfg.breaker trips);
                 trips;
               })

let failure_verdict = function
  | Attacks.Verdict.Detected _ | Attacks.Verdict.Crashed _ -> true
  | Attacks.Verdict.Success | Attacks.Verdict.No_effect -> false

type stats = {
  clients_tracked : int;
  rejected_backoff : int;
  rejected_quarantine : int;
  breaker_trips : int;
  quarantined : int list;
  added_delay : float;
}

let stats t =
  let quarantined =
    Hashtbl.fold
      (fun c s acc -> match s with Quarantined -> c :: acc | _ -> acc)
      t.table []
    |> List.sort compare
  in
  {
    clients_tracked = Hashtbl.length t.table;
    rejected_backoff = t.rejected_backoff;
    rejected_quarantine = t.rejected_quarantine;
    breaker_trips = t.breaker_trips;
    quarantined;
    added_delay = t.added_delay;
  }

type cost = {
  attempts : int;
  rejected : int;
  succeeded : bool;
  quarantined_at : int option;
  virtual_cost : float option;
  added_delay : float;
}

let brute_cost cfg ~gap verdicts =
  let t = create cfg in
  let client = 0 in
  let rec walk now attempts rejected = function
    | [] ->
        {
          attempts;
          rejected;
          succeeded = false;
          quarantined_at = None;
          virtual_cost = None;
          added_delay = t.added_delay;
        }
    | v :: rest -> (
        match decide t ~client ~now with
        | Reject_quarantine ->
            {
              attempts;
              rejected;
              succeeded = false;
              quarantined_at = Some attempts;
              virtual_cost = None;
              added_delay = t.added_delay;
            }
        | Reject_backoff w ->
            (* the attacker waits the breaker out, then retries the
               same craft — no verdict is consumed *)
            walk (now +. w) attempts (rejected + 1) (v :: rest)
        | Admit ->
            let finish = now +. gap in
            observe t ~client ~now:finish ~failure:(failure_verdict v);
            if v = Attacks.Verdict.Success then
              {
                attempts = attempts + 1;
                rejected;
                succeeded = true;
                quarantined_at = None;
                virtual_cost = Some finish;
                added_delay = t.added_delay;
              }
            else walk finish (attempts + 1) rejected rest)
  in
  walk 0. 0 0 verdicts

type kind =
  | Kpseudo of { mutable state : int64 }
  | Kaes of Crypto.Ctr.t
  | Krdrand of Crypto.Entropy.t

type policy = Fail_secure | Fail_open

type degradation = {
  from_scheme : Scheme.t;
  to_scheme : Scheme.t option;
  reason : string;
}

exception Source_failed of string

type tampered = Value of int64 | Unavailable

type t = {
  mutable scheme : Scheme.t;
  mutable kind : kind;
  mutable draws : int;
  entropy : Crypto.Entropy.t;
  rekey_interval : int;
  policy : policy;
  health : Health.t;
  mutable health_enabled : bool;
  mutable tamper : (scheme:Scheme.t -> draw:int -> int64 -> tampered) option;
  mutable on_degrade : (degradation -> unit) option;
  mutable degradations_rev : degradation list;
}

let make_kind ?seed_state ~rekey_interval ~entropy scheme =
  match scheme with
  | Scheme.Pseudo ->
      let state =
        match seed_state with Some s -> s | None -> Crypto.Entropy.u64 entropy
      in
      Kpseudo { state }
  | Scheme.Aes_ctr { rounds } ->
      Kaes
        (Crypto.Ctr.create ~rounds ~rekey_interval
           ~entropy:(Crypto.Entropy.bytes entropy) ())
  | Scheme.Rdrand -> Krdrand entropy

let create ?seed_state ?(rekey_interval = 65536) ?(policy = Fail_secure)
    ?(health = Health.default) scheme ~entropy =
  {
    scheme;
    kind = make_kind ?seed_state ~rekey_interval ~entropy scheme;
    draws = 0;
    entropy;
    rekey_interval;
    policy;
    health = Health.create ~config:health ();
    health_enabled = true;
    tamper = None;
    on_degrade = None;
    degradations_rev = [];
  }

let degradation_to_string d =
  Printf.sprintf "%s->%s" (Scheme.name d.from_scheme)
    (match d.to_scheme with Some s -> Scheme.name s | None -> "ABORT")

let current_scheme t = t.scheme
let degradations t = List.rev t.degradations_rev
let set_on_degrade t f = t.on_degrade <- Some f
let set_tamper t f = t.tamper <- Some f

(* The fallback chain.  A degraded source is abandoned for good, so the
   tamper hook (which models a defect of that physical source) is
   cleared, and the fallback starts with fresh health state. *)
let degrade t ~reason =
  let from_scheme = t.scheme in
  let next =
    match (t.policy, t.scheme) with
    | Fail_open, _ -> Some Scheme.Pseudo
    | Fail_secure, Scheme.Rdrand -> Some (Scheme.Aes_ctr { rounds = 10 })
    | Fail_secure, (Scheme.Aes_ctr _ | Scheme.Pseudo) -> None
  in
  let d = { from_scheme; to_scheme = next; reason } in
  t.degradations_rev <- d :: t.degradations_rev;
  t.tamper <- None;
  (match t.on_degrade with Some f -> f d | None -> ());
  match next with
  | None -> raise (Source_failed reason)
  | Some s ->
      t.scheme <- s;
      t.kind <-
        make_kind ~rekey_interval:t.rekey_interval ~entropy:t.entropy s;
      Health.reset t.health;
      (* fail-open means "keep serving whatever we have": no further
         screening, no further degradation *)
      if t.policy = Fail_open then t.health_enabled <- false

let rec draw_checked t =
  let raw =
    match t.kind with
    | Kpseudo p ->
        p.state <- Pseudo.step p.state;
        Pseudo.output p.state
    | Kaes ctr -> Crypto.Ctr.next_u64 ctr
    | Krdrand e -> Crypto.Entropy.u64 e
  in
  let sample =
    match t.tamper with
    | None -> Value raw
    | Some f -> f ~scheme:t.scheme ~draw:t.draws raw
  in
  match sample with
  | Unavailable ->
      degrade t ~reason:"source unavailable";
      draw_checked t
  | Value v ->
      (* The SP 800-90B continuous tests qualify the *noise source*:
         only hardware (Rdrand) draws are screened.  DRBG output is
         deliberately exempt — single-round AES has poor enough
         diffusion that its low byte legitimately trips the
         adaptive-proportion test, and Table I's AES-1 operating point
         must keep working. *)
      let hardware = match t.kind with Krdrand _ -> true | _ -> false in
      if not (t.health_enabled && hardware) then v
      else begin
        match Health.feed t.health v with
        | None -> v
        | Some reason ->
            degrade t ~reason;
            draw_checked t
      end

let next_u64 t =
  t.draws <- t.draws + 1;
  draw_checked t

let pseudo_state t =
  match t.kind with
  | Kpseudo p -> p.state
  | _ -> invalid_arg "Rng.Generator.pseudo_state: not a pseudo generator"

let set_pseudo_state t v =
  match t.kind with
  | Kpseudo p -> p.state <- v
  | _ -> invalid_arg "Rng.Generator.set_pseudo_state: not a pseudo generator"

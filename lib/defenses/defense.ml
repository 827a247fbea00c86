type t =
  | No_defense
  | Stack_base
  | Forrest_pad
  | Static_perm
  | Canary
  | Smokestack of Smokestack.Config.t

let name = function
  | No_defense -> "none"
  | Stack_base -> "stack-base"
  | Forrest_pad -> "forrest-pad"
  | Static_perm -> "static-perm"
  | Canary -> "canary"
  | Smokestack config ->
      Printf.sprintf "smokestack(%s)" (Rng.Scheme.name config.Smokestack.Config.scheme)

let all =
  [
    No_defense;
    Stack_base;
    Forrest_pad;
    Static_perm;
    Canary;
    Smokestack Smokestack.Config.default;
  ]

type applied = {
  defense : t;
  prog : Ir.Prog.t;
  fresh_state : Crypto.Entropy.t -> Machine.Exec.state;
  pbox_bytes : int;
  runner : Machine.Backend.t -> Machine.Backend.run_fn;
}

(* Each backend's runner of [prog], loaded on first use.  The list is
   published by compare-and-set, because a serve tenant's applied is
   shared by shard jobs on several domains; a lost race retries and
   finds the winner's runner. *)
let runners prog =
  let bound = Atomic.make [] in
  let rec runner (b : Machine.Backend.t) =
    let seen = Atomic.get bound in
    match List.assq_opt b seen with
    | Some run -> run
    | None ->
        let run = b.load prog in
        if Atomic.compare_and_set bound seen ((b, run) :: seen) then run else runner b
  in
  runner

let apply ?(seed = 1L) defense prog =
  let copy pass =
    let prog = Ir.Prog.copy prog in
    Option.iter (fun pass -> Ir.Pass.run [ pass ] prog) pass;
    prog
  in
  let prepare ?install prog entropy =
    let st = Machine.Exec.prepare prog in
    Option.iter (fun install -> install ~entropy st) install;
    st
  in
  let plain ?install pass =
    let prog = copy pass in
    (prog, prepare ?install prog, 0)
  in
  let prog, fresh_state, pbox_bytes =
    match defense with
    | No_defense -> plain None
    | Stack_base -> plain ~install:Stack_base.install None
    | Forrest_pad -> plain (Some (Forrest.pass (Sutil.Simrng.create ~seed)))
    | Static_perm -> plain (Some (Static_perm.pass (Sutil.Simrng.create ~seed)))
    | Canary -> plain ~install:Canary.install (Some Canary.pass)
    | Smokestack config ->
        let hardened = Smokestack.Harden.harden ~seed config prog in
        ( hardened.prog,
          (fun entropy -> Smokestack.Harden.prepare ~entropy hardened),
          Smokestack.Harden.pbox_bytes hardened )
  in
  { defense; prog; fresh_state; pbox_bytes; runner = runners prog }

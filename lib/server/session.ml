type kind =
  | Benign of string list
  | Attack of string
  | Chaotic of string list * Fault.Plan.t

type spec = {
  sid : int;
  tenant : Tenant.t;
  kind : kind;
  client : int;
  paying : bool;
  sseed : int64;
  arrival : float;
}

type outcome = {
  spec : spec;
  verdict : Attacks.Verdict.t;
  service_cycles : float;
  requests : int;
  fired : int;
  batch_match : bool option;
}

let kind_label = function
  | Benign _ -> "benign"
  | Attack _ -> "attack"
  | Chaotic _ -> "chaos"

let detected o =
  match o.verdict with Attacks.Verdict.Detected _ -> true | _ -> false

let cycles_of = function
  | Some (s : Machine.Exec.stats) -> Float.max 1. s.Machine.Exec.cycles
  | None -> 1.

let run ~backend ~(applied : Defenses.Defense.applied) (spec : spec) =
  match spec.kind with
  | Benign flow ->
      let r =
        Apps.Sessions.run_benign ~backend applied ~seed:spec.sseed ~chunks:flow
      in
      {
        spec;
        verdict = r.Apps.Dopkit.verdict;
        service_cycles = cycles_of r.stats;
        requests = r.requests;
        fired = 0;
        batch_match = None;
      }
  | Attack aname -> (
      match Apps.Sessions.find_attack aname with
      | None -> invalid_arg ("Server.Session: unknown attack " ^ aname)
      | Some (_, atk) ->
          let r = atk.Apps.Sessions.attack ~backend applied ~seed:spec.sseed in
          (* The whole point of the server harness's security claim:
             serving the attack through the session machinery must
             change nothing about its fate.  The batch verdict is the
             same attack re-run on the reference interpreter, the
             oracle. *)
          let batch =
            atk.Apps.Sessions.attack ~backend:Machine.Backend.reference applied
              ~seed:spec.sseed
          in
          {
            spec;
            verdict = r.verdict;
            service_cycles = cycles_of r.stats;
            requests = r.requests;
            fired = 0;
            batch_match = Some (r.verdict = batch.verdict);
          })
  | Chaotic (flow, plan) ->
      let armed = ref None in
      let arm st = armed := Some (Fault.Inject.arm plan st) in
      let r =
        Apps.Sessions.run_benign ~backend ~arm applied ~seed:spec.sseed
          ~chunks:flow
      in
      {
        spec;
        verdict = r.Apps.Dopkit.verdict;
        service_cycles = cycles_of r.stats;
        requests = r.requests;
        fired = (match !armed with Some a -> Fault.Inject.fired a | None -> 0);
        batch_match = None;
      }

(** A tenant of the server runtime: one application hardened with one
    defense, plus the keyed seed that makes everything about the tenant
    — its build-time randomization and every per-session stream derived
    under it — a pure function of the fleet's root seed.

    Tenants are the isolation unit: each one gets its own prepared
    instance ({!prepare}, built once per tenant by
    {!Dispatch.execute}) and sessions never share machine state — every
    session builds a fresh state from the tenant's [applied] with its
    own entropy stream, so a compromised or crashed session cannot leak
    into its neighbours. *)

type t = {
  id : int;
  name : string;  (** e.g. ["t03:wireshark"] *)
  app : Apps.Sessions.app;
  defense : Defenses.Defense.t;
  tseed : int64;
      (** keyed derivation from the fleet root and the tenant name *)
}

val fleet :
  ?defense:Defenses.Defense.t ->
  ?apps:Apps.Sessions.app list ->
  root:int64 ->
  unit ->
  t list
(** One tenant per session app (all nine by default), every one
    hardened with [defense] (default: Smokestack with the paper's
    default configuration). *)

val prepare : t -> Defenses.Defense.applied
(** Build the tenant's hardened instance (compile passes + P-BOX
    randomization under the tenant seed).  Deterministic; expensive —
    call once per tenant and share the result.  Forces the app's
    [sprogram]; two domains must not force one [Lazy.t] at once. *)

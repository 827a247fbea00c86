(** One client session: its specification (who, what, when) and the
    result of serving it.

    A session is the server runtime's unit of work.  Its [spec] is pure
    data produced by {!Traffic} — tenant, kind, seed, virtual arrival
    time — so the whole workload can be generated, sharded, replayed
    and compared across runs without executing anything.  {!run}
    executes one session against the tenant's prepared instance on the
    calling domain: a fresh machine state per session (built from the
    session seed's entropy stream), the request flow as the VM's input,
    and the observable verdict classified exactly as the batch
    harnesses do. *)

type kind =
  | Benign of string list  (** a legitimate request flow *)
  | Attack of string
      (** a batch-harness case name, e.g. ["proftpd/bot"] *)
  | Chaotic of string list * Fault.Plan.t
      (** a benign flow served while an infrastructure fault plan is
          armed on the instance (mem/intr families — RNG-source plans
          need a generator and stay with the chaos harness) *)

type spec = {
  sid : int;  (** dense, 0-based; submission order *)
  tenant : Tenant.t;
  kind : kind;
  client : int;
      (** stable client identity — attack sessions come from a small
          attacker pool so session affinity can accumulate state *)
  paying : bool;  (** paying-tier client (drives the priority class) *)
  sseed : int64;  (** drives entropy and the attack's layout guess *)
  arrival : float;  (** virtual arrival time, in VM cycles *)
}

type outcome = {
  spec : spec;
  verdict : Attacks.Verdict.t;
  service_cycles : float;
      (** measured VM cycles for the session's run (>= 1; crafts that
          were geometrically impossible never ran and cost 1) *)
  requests : int;  (** request chunks delivered *)
  fired : int;  (** chaos injections that actually happened *)
  batch_match : bool option;
      (** attacks only: did the served verdict equal the verdict of
          the same attack re-run on the reference interpreter for the
          same instance and seed? *)
}

val kind_label : kind -> string
(** ["benign"], ["attack"] or ["chaos"]. *)

val detected : outcome -> bool

val run :
  backend:Machine.Backend.t ->
  applied:Defenses.Defense.applied ->
  spec ->
  outcome
(** Serve one session on [~backend].  An attack session runs its
    attack a second time on {!Machine.Backend.reference} and records in
    [batch_match] whether the two verdicts agree. *)

(** E18: the resilient control plane experiment — what session
    affinity, circuit breakers, priority classes and graceful
    degradation buy the fleet, measured two ways.

    {b Attacker economics.}  Brute-force verdict sequences for the
    hand-written corpus attacks and the PR 8 synthesized chains (both
    against full Smokestack hardening) are replayed through
    {!Server.Policy.brute_cost}: affinity off, the cost is
    [attempts * gap]; affinity on, every trip inserts exponential
    virtual-time backoff and persistent failure ends in quarantine — the restart-after-crash assumption turned into
    a measurable price, reported next to the [Entropy_an] prediction.

    {b Fleet under a fault storm.}  One storm-overlaid schedule is
    executed {e once}, then admitted twice — FCFS baseline vs the full
    control plane (WFQ classes + breakers + degradation).  The claims
    checked: benign p99 within 10% of the baseline, strictly fewer
    attack sessions admitted, zero batch-verdict mismatches in every
    cell, and byte-identical reports at any pool width on either
    engine. *)

type config = {
  traffic : Server.Traffic.config;  (** storm-overlaid schedule *)
  baseline : Server.Dispatch.config;  (** FCFS, anonymous (affinity off) *)
  resilient : Server.Dispatch.config;
      (** WFQ + breakers + degradation *)
  defense : Defenses.Defense.t;
  budget : int;  (** brute-force verdict budget per attack family *)
  gap : float;  (** attacker craft+restart cost per attempt, cycles *)
}

type cost_row = {
  rtarget : string;
  rkind : string;  (** ["hand-written"] or ["synthesized <family> #id"] *)
  predicted : float option;
      (** [Entropy_an] expected brute-force attempts for the attacked
          frame *)
  off : Server.Policy.cost;  (** affinity off: attempts * gap *)
  on_ : Server.Policy.cost;  (** breakers on: backoff + quarantine *)
  higher : bool;
      (** is the affinity-on cost strictly higher?  (quarantine or
          budget exhaustion with a finite off-cost counts; an off-cost
          that itself exhausted the budget cannot be compared and
          counts as [false]) *)
}

type fleet_cell = {
  cname : string;
  dispatch : Server.Dispatch.t;
  summary : Server.Metrics.summary;
  benign_p99 : float;  (** p99 sojourn over served benign sessions *)
}

type t = {
  config : config;
  scheduled : int * int * int;
  storm_sessions : int;
  cost_rows : cost_row list;
  hand_higher : bool;  (** some hand-written family costs strictly more *)
  synth_higher : bool;  (** some synthesized family costs strictly more *)
  cells : fleet_cell list;  (** baseline first, then resilient *)
  benign_p99_ratio : float;  (** resilient benign p99 / baseline's *)
  mismatches : int;  (** batch mismatches summed over cells (must be 0) *)
}

val run : ?pool:Sched.Pool.t -> backend:Machine.Backend.t -> unit -> t
(** Runs the experiment at its one configuration (1000 storm-overlaid
    sessions, brute-force budget 4000, gap 1000 cycles), reported in
    [t.config]. *)

val output : t -> Output.t
(** The E18 report: the cost ([resilience]), fleet ([resilience_fleet])
    and class ([resilience_classes]) tables with their lead and headline
    lines. *)

(** Deterministic mixed benign+attack traffic generator.

    Every session's tenant, kind, request flow, client identity, seed
    and virtual arrival time are drawn from a keyed stream
    ([Simrng.stream ~root ~id:"session-NNNNNN"]), so a schedule is a
    pure function of the config — the same config replays the same
    byte-for-byte workload on any engine, at any pool width, in any
    execution order.

    The mix interleaves three session kinds: benign request flows
    (drawn from each app's legitimate vocabulary), attack sessions
    (uniformly over the tenant app's batch-harness cases), and chaos
    sessions (benign flows served under an armed mem/intr fault plan).
    Arrivals are spaced by uniform gaps with mean [mean_gap] cycles;
    with the default config arrivals far outpace service, driving the
    dispatcher to its admission limit — the overload regime the
    backpressure policy is meant for.

    Sessions carry a stable {e client} identity: attack sessions come
    from a small pool of [attackers] clients (so session affinity can
    accumulate breaker state across their retries), benign and chaos
    sessions from the remaining population, of which [paying_pct]
    percent are paying-tier.  An optional {!Fault.Storm} overrides the
    attack/chaos percentages inside its burst windows. *)

type config = {
  sessions : int;  (** schedule length (default 1300) *)
  attack_pct : int;  (** percent of sessions that are attacks *)
  chaos_pct : int;  (** percent served under an armed fault plan *)
  mean_gap : int;  (** mean inter-arrival gap, VM cycles *)
  root : int64;  (** the single seed everything derives from *)
  clients : int;  (** client population size (default 64) *)
  attackers : int;
      (** attacker-pool size; attack sessions draw their client from
          clients [0, attackers) (default 4) *)
  paying_pct : int;
      (** percent of non-attacker clients on the paying tier *)
  storm : Fault.Storm.t option;
      (** burst windows of elevated attack/chaos rates *)
}

val default : config

val generate : ?pool:Sched.Pool.t -> config -> Tenant.t list -> Session.spec list
(** The full schedule, in sid (= arrival) order.  With [pool] (default
    {!Sched.Pool.sequential}), contiguous sid ranges, one per pool
    domain, are drawn as pool jobs; the schedule is bit-identical at any
    width. *)

val census : Session.spec list -> int * int * int
(** [(benign, attack, chaos)] counts. *)

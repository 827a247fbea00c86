(** Per-client admission policy: session affinity, circuit breakers and
    priority classes.

    Smokestack's threat model says a failed probe crashes the process
    and the attacker must restart before trying again.  An anonymous
    fleet gives that restart away for free; with session affinity the
    fleet remembers each client across sessions, and a client whose
    session was detected or crashed trips a {e circuit breaker}:

    - [Closed]: admitting normally, counting consecutive failures.
    - [Open]: rejecting until a virtual-time deadline.  The backoff is
      exponential in the trip count ([base * factor^(trips-1)], capped
      at [max_backoff]).
    - [Half_open]: the deadline passed; exactly one probe session is
      admitted.  Success closes the breaker, failure re-opens it with a
      longer backoff.
    - [Quarantined]: more than [max_trips] trips — the fail-secure
      terminal state; every further session is rejected.

    All clocks are virtual (VM cycles from the admission simulator), so
    breaker state is a pure function of the completion sequence and the
    whole policy layer is byte-identical across engines and pool widths.

    {!brute_cost} turns the breaker walk into the attacker-economics
    number the resilience report leads with: replaying a brute-force
    verdict sequence through the policy yields the added virtual-time
    cost (imposed backoff) and whether the client is quarantined before
    its first landing — i.e. whether the expected
    [Entropy_an]-predicted attempt count is even reachable. *)

(** Priority class of an admitted session, derived from the schedule's
    [paying] bit and the client's breaker history. *)
type cls = Paying | Standard | Suspect

val cls_label : cls -> string
val cls_rank : cls -> int
(** Shedding priority: [Suspect] = 0 (first to go), [Standard] = 1,
    [Paying] = 2. *)

type breaker = {
  failures : int;  (** consecutive failures that trip a closed breaker *)
  base_backoff : float;  (** first backoff, virtual cycles *)
  factor : float;  (** backoff multiplier per trip *)
  max_backoff : float;  (** backoff cap, virtual cycles *)
  max_trips : int;  (** trips beyond which the client is quarantined *)
}

val default_breaker : breaker
(** [{failures = 2; base_backoff = 20_000.; factor = 2.; max_backoff =
    5e6; max_trips = 3}] *)

type config = {
  affinity : bool;
      (** with affinity off every decision is [Admit] and no state is
          kept — the anonymous-fleet baseline *)
  breaker : breaker;
}

val default : config
(** Affinity on, {!default_breaker}. *)

type state =
  | Closed of int  (** consecutive failures so far *)
  | Open of { until : float; trips : int }
  | Half_open of { trips : int }
  | Quarantined

type decision =
  | Admit
  | Reject_backoff of float  (** remaining backoff, virtual cycles *)
  | Reject_quarantine

type t
(** Mutable per-fleet policy state (a client table). Single-domain:
    only the sequential admission replay touches it. *)

val create : config -> t

val decide : t -> client:int -> now:float -> decision
(** Admission decision for [client] at virtual time [now].  Advances
    [Open -> Half_open] when the deadline has passed (the probe
    admission), and counts rejections into {!stats}. *)

val observe : t -> client:int -> now:float -> failure:bool -> unit
(** Feed a session completion (at its virtual finish time) back into
    the client's breaker.  [failure] should be true for detected or
    crashed sessions (see {!failure_verdict}). *)

val state_of : t -> client:int -> state

val suspect : t -> client:int -> bool
(** Has this client any failure history (non-pristine breaker)?  Drives
    the [Suspect] priority class. *)

val failure_verdict : Attacks.Verdict.t -> bool
(** [Detected _] and [Crashed _] trip breakers; [Success] and
    [No_effect] do not (a landed attack is invisible to the fleet —
    exactly why detection feeding the breaker matters). *)

type stats = {
  clients_tracked : int;
  rejected_backoff : int;
  rejected_quarantine : int;
  breaker_trips : int;  (** Closed/Half_open -> Open transitions *)
  quarantined : int list;  (** client ids, ascending *)
  added_delay : float;
      (** sum of remaining backoff over backoff rejections — the
          virtual time the policy charged throttled clients *)
}

val stats : t -> stats

(** {2 Attacker cost model} *)

type cost = {
  attempts : int;  (** admitted probe sessions *)
  rejected : int;  (** backoff rejections (attacker waited them out) *)
  succeeded : bool;  (** a probe landed within the verdict budget *)
  quarantined_at : int option;
      (** attempts admitted before quarantine cut the client off *)
  virtual_cost : float option;
      (** virtual time to first landing ([None]: unreachable — budget
          exhausted or quarantined first) *)
  added_delay : float;  (** backoff the policy imposed, virtual cycles *)
}

val brute_cost : config -> gap:float -> Attacks.Verdict.t list -> cost
(** Replay a brute-force verdict sequence (attempt [i] yields verdict
    [i]) against a fresh policy: the attacker retries as fast as
    admission allows, each admitted attempt costing [gap] virtual
    cycles (craft + restart).  With affinity off this degenerates to
    [attempts * gap]; with breakers on, every trip inserts backoff and
    [max_trips] overruns end the walk in quarantine. *)

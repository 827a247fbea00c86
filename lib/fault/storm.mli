(** Deterministic fault-storm schedules for the server runtime.

    A storm is a set of burst windows over the session index axis:
    inside a burst the traffic generator swaps its baseline attack and
    chaos percentages for the (much hotter) storm rates, outside it the
    baseline applies.  The windows are a pure function of the
    [(root, "storm/k")] keyed streams, so the same config replays the
    same storm on any engine, at any pool width — the property every
    resilience report depends on.

    Storms live here rather than in [Server.Traffic] because they are a
    fault-pressure model, not a traffic model: the chaos sessions they
    inflate are served under armed {!Plan} fault plans, and the breaker
    storms they trigger are what the control plane's graceful
    degradation is tested against. *)

type t = {
  bursts : (int * int) list;
      (** [\[start, stop)] session-index windows, disjoint, ascending *)
  attack_pct : int;  (** attack percentage inside a burst *)
  chaos_pct : int;  (** chaos percentage inside a burst *)
}

val plan :
  ?bursts:int ->
  ?burst_len:int ->
  ?attack_pct:int ->
  ?chaos_pct:int ->
  root:int64 ->
  sessions:int ->
  unit ->
  t
(** [plan ~root ~sessions ()] draws [bursts] (default 3) windows of
    [burst_len] sessions (default [sessions/6], min 1), one per equal
    segment of the schedule so they never overlap.  Inside a burst the
    mix runs at [attack_pct]/[chaos_pct] (defaults 35/30 — hot enough
    to trip breakers and trigger degradation). *)

val in_burst : t -> int -> bool
(** Is session index [sid] inside a burst window? *)

val rates_at : t -> int -> base:int * int -> int * int
(** [(attack_pct, chaos_pct)] in effect at session index [sid]:
    the storm rates inside a burst, [base] outside. *)

val storm_sessions : t -> int
(** Total session indices covered by burst windows. *)

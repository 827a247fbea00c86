(** Execution tracing.

    A bounded ring of events the embedder opts into per state: function
    entries/exits with stack pointers, intrinsic calls with their
    results, and detection/fault events.  The exploit write-ups in
    [examples/] use it to show {e where} a corrupted run diverged; the
    CLI exposes it as [smokestackc run --trace].

    Tracing costs nothing when not attached (the interpreter's hook is
    [None]). *)

type event = Exec.trace_event =
  | Ev_call of { func : string; depth : int; sp : int }
  | Ev_return of { func : string; depth : int }
  | Ev_intrinsic of { name : string; result : int64 option }
  | Ev_fault of { detail : string }
  | Ev_detected of { reason : string }
  | Ev_rng_degraded of { from_ : string; to_ : string option; reason : string }

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 4096 events; older events are dropped. *)

val attach : t -> Exec.state -> unit
(** Start recording events from this state. *)

val record : t -> event -> unit
(** Append one event, dropping the oldest when the ring is full.
    [attach] installs this as the state's hook; exposed for embedders
    that merge their own events into the transcript, and for tests. *)

val events : t -> event list
(** Oldest first. *)

val dropped : t -> int
(** Events lost to the ring bound. *)

val render : ?limit:int -> t -> string
(** Human-readable transcript (indented by call depth), most recent
    [limit] events (default all retained). *)

(** Cached artifacts and their versioned JSON codecs.

    An entry is a [(kind, version, payload)] triple.  [kind] names the
    artifact family (execution outcome or attack verdict list);
    [version] is bumped whenever that family's payload shape changes,
    and a reader that finds an unexpected kind or version treats the
    entry as a miss — never as a decode error — so stores written by
    older binaries degrade gracefully instead of crashing campaigns.

    Payload floats round-trip bit-exactly: the order-sensitive cycle
    count is stored as its IEEE-754 bit pattern, which is what lets a
    warm campaign render byte-identical reports without touching the
    VM. *)

type t = { kind : string; version : int; payload : Sutil.Json.t }

val make : kind:string -> version:int -> Sutil.Json.t -> t

val to_json : key:Key.t -> t -> Sutil.Json.t
(** The on-disk document: the full key is echoed next to the payload so
    a reader can verify the file really belongs to the key it was
    addressed by (hash-collision and foreign-file safety). *)

val of_json : Sutil.Json.t -> (Key.t * t) option

(** {2 Execution outcomes} — the hot artifact: one run's observables. *)

type exec = {
  outcome : string;  (** [Machine.Exec.outcome_to_string] rendering *)
  exit_code : int64 option;  (** [Some c] iff the outcome was [Exit c] *)
  stats : Machine.Exec.stats;
  pbox_bytes : int option;
      (** P-BOX bytes of the hardened binary, when the producer ran a
          hardened build and measured them *)
}

val exec_of_run :
  ?pbox_bytes:int -> Machine.Exec.outcome * Machine.Exec.stats -> exec

val exec_entry : exec -> t

val exec_of_entry : t -> exec option
(** [None] on a kind/version mismatch or malformed payload (both are
    cache misses by contract). *)

(** {2 Attack verdict lists} — [(tag, detail)] pairs so the store stays
    independent of [lib/attacks]; producers own the conversion. *)

val verdicts_entry : (string * string) list -> t
val verdicts_of_entry : t -> (string * string) list option

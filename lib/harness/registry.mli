(** The experiment registry: every paper experiment E1–E19, declared once.

    Each entry carries its E-id, its key, the report heading and
    paper-claim paragraph, and one runner, which executes its programs
    on the backend its caller passes.  A runner's {!outcome} holds
    the experiment's output as one {!Output.t} — the EXPERIMENTS.md body
    and every [BENCH_<name>.json] are both rendered from it by
    [bin/experiments.exe] — plus the experiment's headline invariants
    as evaluated predicates, so a failed headline is an exit code rather
    than a line someone has to grep for. *)

type outcome = {
  output : Output.t;  (** the report body after the claim paragraph, and the JSON tables *)
  invariants : (string * bool) list;  (** headline predicates: (name, holds) *)
}

type entry = {
  id : string;  (** ["E1"] … ["E19"] *)
  key : string;  (** command-line key, e.g. ["table1"] *)
  title : string;  (** heading text after the E-id *)
  claim : string;  (** the paper-claim paragraph *)
  run : Sched.Pool.t -> Machine.Backend.t -> outcome;
}

val all : entry list
(** E1..E19, in report order. *)

val setup : unit -> unit
(** Registers the bytecode backend and installs the static validator as
    [Harden]'s post-condition (and the elision oracle behind
    [Config.selective]).  Front-ends call it once, before any entry
    runs. *)

val heading : entry -> string
(** ["E1 — Table I: randomness source rates"]: the report's [## ] line
    without its marker. *)

val preamble : string
(** The report's title and introduction, up to the first section. *)

val section : entry -> outcome -> string
(** One report section: heading, claim paragraph and body. *)

val violations : entry -> outcome -> string list
(** One message per false invariant, naming the entry and the
    predicate. *)

val exit_code : string list -> int
(** 0 when no invariant failed, 1 otherwise. *)

(** The experiment registry: every paper experiment E1–E19, declared once.

    Each entry carries its E-id, its bench key, the report heading and
    paper-claim paragraph, and one runner.  A runner's {!outcome} holds
    everything both front-ends print — the EXPERIMENTS.md body
    ([bin/experiments.exe]) and the tables and headline lines
    ([bench/main.exe]) — plus the experiment's headline invariants as
    evaluated predicates, so a failed headline is an exit code rather
    than a line someone has to grep for. *)

type item =
  | Table of { name : string; title : string; table : Sutil.Texttable.t }
      (** A bench table; [name] is its [BENCH_<name>.json] stem. *)
  | Line of string  (** A bench headline line. *)

type outcome = {
  markdown : string;  (** report body following the claim paragraph *)
  bench : item list;  (** what [bench/main.exe] prints, in order *)
  invariants : (string * bool) list;
      (** headline predicates: (name, holds) *)
}

type entry = {
  id : string;  (** ["E1"] … ["E19"] *)
  key : string;  (** bench key, e.g. ["table1"] *)
  title : string;  (** heading text after the E-id *)
  claim : string;  (** the paper-claim paragraph *)
  run : Sched.Pool.t -> outcome;
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

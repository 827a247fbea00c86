(** E12 — static DOP attack surface across the workload zoo.

    One {!Analysis.Report} per program: the SPEC-like and I/O
    workloads, the six synthetic penetration-test variants, and a
    handful of {!Minic.Progen} programs (the random programs are
    memory-safe by construction, so their overflow counts double as a
    false-positive gauge — only escape-based imprecision should
    appear).  Each row also checks the workload's [dop_hints]
    annotations: every hinted (function, slot) must be classified
    overflow-capable. *)

type row = {
  pname : string;
  pkind : string;  (** ["spec"], ["io"], ["synth"] or ["progen"] *)
  n_funcs : int;
  n_slots : int;
  n_overflow : int;
  n_victims : int;
  n_pairs : int;
  easiest : (string * float) list;
      (** per defense, expected attempts of the easiest pair *)
  hints_ok : bool;  (** all [dop_hints] classified overflow-capable *)
}

type t = { rows : row list; defense_names : string list }

val run : ?pool:Sched.Pool.t -> unit -> t
(** One row per workload, synthetic variant and each of 4 random
    programs from seeds 9001..; every row carries the sampled
    per-defense attempts. *)

val output : t -> Output.t
(** The E12 surface table ([analysis]). *)

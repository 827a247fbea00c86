(** Attack-surface reports: the analyzer's user-facing output.

    [analyze_prog] runs the whole pipeline — per-function slot
    classification ({!Funcan}), DOP pair enumeration ({!Dop}) and
    per-defense expected-attempts scoring ({!Score}) — and packages the
    result for the [smokestackc analyze] subcommand, the [analysis]
    bench experiment, and the differential validator in [lib/harness].

    The JSON form ({!to_json}) is write-only: [smokestackc analyze
    --json] emits it for external tools, and nothing reads it back. *)

type scored_pair = {
  pair : Dop.pair;
  attempts : (string * float) list;
  degraded : (string * float) list;
      (** expected attempts after conditioning on the statically-found
          layout leaks ({!Leakan}) of the pair's two frames; [[]] when
          those frames leak nothing.  For the per-invocation defense
          this divides by [2^leaked_bits] (the conditional collision
          estimate); per-build defenses collapse to one attempt under
          any value/address disclosure. *)
}

type func_summary = {
  fname : string;
  n_slots : int;
  n_overflow : int;  (** overflow-capable slots *)
  n_victims : int;  (** slots with at least one victim role *)
  wild_stores : int;
  frame_bytes : int;
  validated : bool;
      (** default-config hardening of the program passes the static
          validator ({!Validate}) with no violation attributed to this
          function *)
  leaked_bits : float;
      (** collision-entropy bits this function's layout secrets
          disclose ({!Leakan.leaked_bits_for}); [0.] when leak-free *)
}

type t = {
  name : string;
  funcs : func_summary list;
  analyses : Funcan.t list;
  pairs : scored_pair list;
  defense_names : string list;
  leakage : Leakan.t;
}

val analyze_prog : ?name:string -> ?score:bool -> Ir.Prog.t -> t
(** [score] defaults to [true]; pass [false] to skip the (sampled)
    per-defense attempts and get classification + pairs only.  Leak
    analysis always runs (it is cheap and unsampled). *)

val summary : t -> (string * float) list
(** Per defense, the expected attempts of the {e easiest} pair — the
    attacker picks the cheapest channel.  [infinity] when the program
    has no pairs at all. *)

val summary_degraded : t -> (string * float) list
(** Like {!summary} but using each pair's leak-degraded attempts where
    available — the disclosure-aware attacker's cost. *)

val to_text : t -> string
(** Full human-readable report (both tables plus per-slot detail). *)

val to_json : t -> Sutil.Json.t

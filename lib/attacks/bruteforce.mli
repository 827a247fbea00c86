(** Brute-force attack driver (threat model §III-B: a finite number of
    attempts against a service that restarts after each crash). *)

type result = {
  attempts : int;  (** attempts actually made *)
  succeeded : bool;
  verdicts : Verdict.t list;  (** per-attempt verdicts, first first *)
}

val run : max_attempts:int -> (int -> Verdict.t) -> result
(** [run ~max_attempts attempt] calls [attempt i] for [i = 0, 1, ...]
    until it returns {!Verdict.Success} or the budget is exhausted. *)

(** Brute-force attack driver (threat model §III-B: a finite number of
    attempts against a service that restarts after each crash).

    This is the one restart-after-crash walk: the hand-written corpus
    attacks, the synthesized chains ({!Dopc.Exec.brute}) and the
    security experiments all walk seeds through {!run}, so their
    attempt counts compare like for like. *)

type result = {
  attempts : int;  (** attempts actually made *)
  succeeded : bool;
  verdicts : Verdict.t list;  (** per-attempt verdicts, first first *)
}

val run : ?seed0:int -> max_attempts:int -> (int -> Verdict.t) -> result
(** [run ?seed0 ~max_attempts attempt] calls [attempt (seed0 + i)] for
    [i = 0, 1, ...] (default [seed0 = 0]) until it returns
    {!Verdict.Success} or [max_attempts] attempts are spent. *)

val attempts_to_success : Verdict.t list -> int option
(** Attempts-to-success of a verdict list in walk order: the index of
    the first {!Verdict.Success} plus one, [None] if none succeeded.
    Works on lists so that verdicts replayed from the store count
    exactly like a fresh {!run}. *)

(** DOP pair enumeration (the tentpole's step 2).

    A {e DOP pair} couples an overflow-capable stack buffer with a
    victim slot an attacker would want to corrupt — a slot whose loaded
    values feed branches, indirect-call targets, memory addresses, call
    arguments, or wild-store values ({!Funcan.role}).  Three channels:

    - {e same-frame}: buffer and victim co-resident in one frame, the
      victim above the buffer under the unhardened layout (overflows
      write upward);
    - {e cross-frame}: the victim lives in an ancestor frame of the
      buffer's function (the librelp/proftpd shape) — the pair carries
      the call path used to compute the static distance;
    - {e wild-write}: the function performs stores through pointers of
      unknown provenance, so any live victim slot (own frame or an
      ancestor's) is addressable without an adjacency requirement.

    Distances come from {!Attacks.Layout} replayed over the unhardened
    binary, i.e. exactly what the paper's adversary reads out of the
    target before Smokestack randomizes it away. *)

type kind = Same_frame | Cross_frame | Wild_write

type pair = {
  pair_id : string;
      (** stable content digest of the identifying tuple (kind, buffer,
          victim, distance, path) — the handle chain synthesis, store
          keys and crossval feedback use to reference a pair without
          re-deriving the tuple.  Deterministic across runs, engines and
          platforms; 12 hex characters. *)
  kind : kind;
  buf_func : string;
  buf_slot : string;  (** ["*"] for {!Wild_write} *)
  victim_func : string;
  victim_slot : string;
  static_distance : int option;
      (** buffer-to-victim bytes under the unhardened layout (positive:
          victim above buffer); [None] for wild writes *)
  path : string list;
      (** caller-first call path for cross-frame pairs, [[]] otherwise *)
  victim_roles : Funcan.role list;
  reasons : Funcan.reason list;
      (** why the buffer is overflow-capable; [[]] for wild writes *)
}

val kind_to_string : kind -> string

val enumerate : Ir.Prog.t -> Funcan.t list -> pair list
(** Deterministic order: buffer functions in analysis order, then
    victims by frame and slot index. *)

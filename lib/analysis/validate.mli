(** Static validation of hardened programs (DESIGN.md §12).

    [check] proves, per function of a {!Smokestack.Harden.t}, the four
    Smokestack security post-conditions over the instrumented IR and
    the built P-BOX — without running anything:

    - {b frame integrity}: exactly one fixed-size alloca remains (the
      [__ss_total] slab, sized to the P-BOX worst case) and every
      original slot is reached only through gep slices of it at
      P-BOX-loaded offsets;
    - {b P-BOX soundness}: every materialized row places each canonical
      column aligned, within the slab, with no duplicate or overlapping
      placements (dynamic bindings are checked on a seeded sample of
      decoded layouts);
    - {b index hygiene}: a taint walk from the {!Smokestack.Abi.intr_rand}
      result — the drawn index, row pointer, and loaded offsets never
      flow into a stored value or address, call argument, indirect-call
      target, or return value (slot {e slices} deliberately launder the
      taint: their addresses are the product, not the secret);
    - {b FID pairing}: the prologue's [fid XOR key] store dominates
      every return, and every return block carries a well-formed
      [ss.fid_assert] (checked on the {!Ir.Cfg} dominator tree).

    Under selective hardening it additionally re-derives, from the
    {e original} program, the proof obligations justifying each
    elision: no VLA, every slot overflow-safe, no DOP pair membership,
    and the elision itself draw-preserving and layout-preserving.

    {!install} registers the validator as {!Smokestack.Harden.harden}'s
    post-condition hook and {!elidable} as its elision oracle. *)

type rule =
  | Frame_integrity
  | Pbox_soundness
  | Index_hygiene
  | Fid_pairing
  | Elision
  | Layout_leak
      (** advisory ({!check_leaks} only): a hardened function's
          observable outputs are taint-reachable from a layout secret *)

val rule_to_string : rule -> string

type violation = {
  rule : rule;
  func : string;  (** offending function (or global) *)
  row : int option;  (** offending P-BOX row, when applicable *)
  detail : string;
}

val violation_to_string : violation -> string

val check : ?original:Ir.Prog.t -> Smokestack.Harden.t -> violation list
(** Deterministic order: P-BOX data first, then functions in program
    order, then elision obligations.  Without [original], elisions
    cannot be certified and a program-level {!Elision} violation is
    reported whenever any exist. *)

val result : ?original:Ir.Prog.t -> Smokestack.Harden.t -> (unit, string) result
(** [check] rendered as the pass pipeline's post-condition: [Error]
    carries one {!violation_to_string} line per violation. *)

val check_leaks : Smokestack.Harden.t -> violation list
(** Advisory {!Layout_leak} lint over the hardened IR: one violation
    per {!Leakan} flow from a layout secret to an observable sink.
    Deliberately {e not} part of {!check} — a leaking program is still
    a well-formed hardening; surfaced by [smokestackc lint --leaks]. *)

val elidable : Ir.Prog.t -> string list
(** The selective-hardening oracle: functions with static slots, no
    VLA, every slot provably overflow-safe and non-escaping
    ({!Funcan}), appearing in no enumerated DOP pair ({!Dop}). *)

val install : unit -> unit
(** Registers {!result} and {!elidable} with {!Smokestack.Harden}. *)

(** {2 Seeded IR mutations}

    Each mutation derives a deliberately broken hardening from a valid
    one — the validator must catch every class ([smokestackc lint
    --mutate]). *)

type mutation =
  | Raw_alloca  (** fixed-size alloca appended outside the slab *)
  | Overlap_row  (** one placement moved onto a neighbour *)
  | Dup_row_entry  (** two columns share one offset *)
  | Swap_row_entries  (** heterogeneous columns exchanged *)
  | Spill_index  (** masked index stored into a stack slot *)
  | Drop_fid_assert  (** epilogue check removed from a return block *)

val all_mutations : mutation list
val mutation_to_string : mutation -> string
val mutation_of_string : string -> mutation option

val expected_rule : mutation -> rule
(** The rule whose violation the mutation must trigger. *)

val mutate :
  seed:int64 ->
  mutation ->
  Smokestack.Harden.t ->
  (Smokestack.Harden.t * string) option
(** Applies one seeded mutation to (a copy of) the hardening, returning
    the mutant and a description of what was broken, or [None] when the
    program offers no applicable site.  P-BOX mutations patch the blob
    and the embedded rodata global consistently, modelling a generator
    bug rather than a rodata tamper. *)

(** {2 JSON} *)

val violation_to_json : violation -> Sutil.Json.t
(** [{"rule": ..., "func": ..., "row": int or null, "detail": ...}]. *)

val report_json :
  ?leaks:violation list ->
  ?extra:(string * Sutil.Json.t) list ->
  name:string ->
  violation list ->
  Sutil.Json.t
(** [{"program": ..., "clean": bool, "violations": [...]}], then
    ["leaks"] when [leaks] is given (clean then also requires it
    empty), then the [extra] fields — what [smokestackc lint --json]
    writes. *)

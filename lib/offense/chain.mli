(** Chain IR — step 2 of the attack compiler.

    A chain is a small data-oriented program: an ordered list of
    {e deliver steps}, each one network message answering one
    [read_input] call, each carrying precise slot writes for the
    vulnerable frame.  Values are either immediates or addresses of
    globals (resolved at lowering time against the actual build, though
    no evaluated defense moves globals).

    Chains are content-addressed: {!make} digests the family, target,
    frame, steps and goal into [chain_id], which store keys, reports
    and crossval feedback reference.  Two planner runs that synthesize
    the same program get the same id. *)

type value =
  | Const of int64
  | Addr_of_global of string  (** resolved via {!Attacks.Layout.global_addrs} *)

type write = { target : string;  (** slot name in the vulnerable frame *)
               value : value }

type step = { writes : write list }
(** One delivered message: filler up to the buffer, then the writes at
    the (build-dependent) slot offsets. *)

type goal =
  | Flip_global of string * int64
      (** success iff the global's final in-memory value equals the
          constant — the semantic witness (e.g. [auth = 0x1337]) *)
  | Output_contains of string
  | Output_differs
      (** success iff the run's output differs from a benign baseline
          fed the same number of same-length filler messages — the weak
          generic witness for chains flipping frame-local state;
          chains with this goal are excluded from the entropy
          measurement because payload bytes vary with the layout
          guess *)

type family = Direct_flip | Aim_write | Dispatch_loop

type t = {
  chain_id : string;
  family : family;
  target : string;  (** program/workload name *)
  func : string;  (** function owning the vulnerable frame *)
  buffer : string;  (** the deliverable buffer slot *)
  slots : (string * int * int) list;
      (** the attacker's source-level knowledge of the frame:
          [(name, size, alignment)] in declaration order — the multiset
          {!Apps.Dopkit.guessed_offsets} permutes when the binary hides
          the layout *)
  steps : step list;
  goal : goal;
  pair_ids : string list;
      (** the static {!Analysis.Dop} pairs the chain rests on *)
  note : string;  (** one-line human rationale *)
}

val goal_to_string : goal -> string

val strong_goal : t -> bool
(** The chain's goal is semantically checkable ({!Flip_global} or
    {!Output_contains}), not the weak {!Output_differs} witness — the
    chains the brute-force entropy measurements use. *)

val family_to_string : family -> string

val make :
  family:family ->
  target:string ->
  func:string ->
  buffer:string ->
  slots:(string * int * int) list ->
  steps:step list ->
  goal:goal ->
  pair_ids:string list ->
  note:string ->
  t
(** Computes [chain_id] from the content (target, family, frame, steps,
    goal — not the note). *)

(** Shared machinery for building DOP exploits against the app models.

    The central abstraction is {e how the attacker learns the frame
    layout}:

    - {!binary_offsets} — static analysis of the (defense-applied)
      binary.  Exact for every static defense; blind against
      Smokestack, whose binary only shows the opaque total slab.
    - {!guessed_offsets} — a brute-force guess: assume the frame is laid
      out by one of the Algorithm-1 permutations of the slot multiset
      the attacker knows from the source, picked by [seed].  Against a
      Smokestack frame this is right with probability ~1/n!.

    Both return offsets {e relative to a chosen buffer variable}, which
    is all a DOP overflow needs. *)

type rel_layout = (string * int) list
(** Variable name → signed byte offset from the buffer start. *)

val binary_offsets :
  Ir.Prog.t -> func:string -> buffer:string -> vars:string list -> rel_layout option
(** [None] when the binary doesn't reveal the buffer or any requested
    variable (the Smokestack case). *)

val guessed_offsets :
  slots:(string * int * int) list ->
  buffer:string ->
  vars:string list ->
  fid_slot:bool ->
  seed:int64 ->
  rel_layout
(** [slots] is the attacker's source-level knowledge:
    [(name, size, alignment)] per local in declaration order.
    [fid_slot] adds the hidden 8-byte Smokestack identifier slot to the
    multiset (Kerckhoffs: the defense design is public).  The guess is
    a uniformly drawn Algorithm-1 row over those slots. *)

val guessed_slab_offsets :
  slots:(string * int * int) list ->
  vars:string list ->
  fid_slot:bool ->
  seed:int64 ->
  (string * int) list
(** Like {!guessed_offsets} but offsets are relative to the slab base —
    what an attacker combines with the [__ss_total] address visible in
    the hardened binary to aim an absolute write. *)

val goal_in_output : string -> Machine.Exec.stats -> bool
(** Does the program's output contain the marker? *)

(** {1 Delivering an attack} *)

type result = {
  verdict : Attacks.Verdict.t;
  stats : Machine.Exec.stats option;
      (** [None] when the craft was impossible and nothing ran. *)
  requests : int;  (** request chunks delivered to the instance *)
}

type attack =
  backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  seed:int64 ->
  result
(** One exploit attempt against a defense-applied build, as every
    hand-written attack in this library exposes it: the engine to run
    on and the attempt's seed, which drives both the run's entropy and
    the attacker's layout guess.  The same function serves the batch
    harnesses, which read only the verdict, and the server's
    sessions. *)

val deliver :
  backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  seed:int64 ->
  marker:string ->
  (unit -> string list) ->
  result
(** Craft the request chunks, run them ({!Runner.run_chunks}) and judge
    the outcome: the goal is met when [marker] appears in the output.
    A craft that raises [Invalid_argument] (an impossible layout guess)
    wastes the attempt: [No_effect], nothing run, no requests. *)

(** Payload compiler — step 3 of the attack compiler: lower a chain
    onto concrete byte strings against one defense-applied build.

    Offsets come from the same two-tier attacker model the hand-written
    corpus uses ({!Apps.Dopkit}): static analysis of the applied binary
    when it reveals the frame ({!Apps.Dopkit.binary_offsets} — exact
    against every static defense), else a seed-driven Algorithm-1 guess
    over the chain's slot multiset (blind against Smokestack, right
    with probability ~1/n!).  One guess per session: the frame is laid
    out once per invocation, and a chain runs inside one invocation.

    A guess can be geometrically impossible — victim at or below the
    buffer, colliding writes.  {!lower} then raises the
    [Invalid_argument] from {!Attacks.Overflow.craft} (which names the
    colliding slots); callers treat it as a wasted attempt. *)

val layout :
  Defenses.Defense.applied ->
  func:string ->
  buffer:string ->
  vars:string list ->
  slots:(string * int * int) list ->
  seed:int64 ->
  (string * int) list
(** Buffer-relative offsets for [vars], exact or guessed. *)

val lower :
  Defenses.Defense.applied -> Chain.t -> seed:int64 -> string list
(** One byte string per chain step.  Raises [Invalid_argument] when the
    layout (under this build and seed) cannot host the writes. *)

val lower_pinned :
  Defenses.Defense.applied ->
  Chain.t ->
  pinned:(string * int) list ->
  seed:int64 ->
  string list
(** {!lower}, but [pinned] buffer-relative offsets — observed from a
    live disclosure, see {!Exec.brute_guided} — override the
    corresponding entries of the derived layout; only the slots the
    target did not disclose keep their Algorithm-1 guess.  Raises
    [Invalid_argument] exactly as {!lower} does when the combined
    layout is geometrically impossible. *)

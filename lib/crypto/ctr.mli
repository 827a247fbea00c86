(** AES counter-mode pseudo-random stream.

    This reproduces the paper's permutation-index generator: AES in
    counter mode, keyed and nonce'd from a true-random source, with the
    universal function-call counter as the counter input.  The key and
    nonce are refreshed after [rekey_interval] blocks, matching the
    paper's "updated when a counter reaches a certain maximum value". *)

type t

val create :
  ?rounds:int -> ?rekey_interval:int -> entropy:(int -> string) -> unit -> t
(** [create ?rounds ?rekey_interval ~entropy ()] builds a CTR stream.
    [entropy n] must return [n] fresh true-random bytes (used for the
    key and nonce, at creation and at every rekey).  [rounds] defaults
    to 10, [rekey_interval] to 65536 blocks. *)

val next_block : t -> string
(** The next 16-byte keystream block. *)

val next_u64 : t -> int64
(** The next 64 bits of keystream (one block yields two values). *)

val blocks_generated : t -> int
(** Total blocks produced since creation (across rekeys). *)

val rekeys : t -> int
(** Number of rekey events so far. *)

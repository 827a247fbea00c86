(** Exports the lint fixture checks: [used] and [f] have a caller in
    {!Caller}, [dead] has none, and no call passes [f]'s [?never]. *)

val used : int -> int
val dead : int -> int
val f : ?passed:int -> ?never:int -> unit -> int

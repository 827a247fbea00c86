(** Control-flow-graph utilities over {!Func.t} blocks.

    Small, allocation-light helpers shared by the verifier-style
    dataflow passes and the static DOP analyzer ([lib/analysis]):
    successor/predecessor maps and a reverse-postorder block ordering
    (the order that makes forward dataflow converge fastest). *)

type t = {
  blocks : Func.block array;  (** in reverse postorder from the entry *)
  index_of : (string, int) Hashtbl.t;  (** label -> index in [blocks] *)
  succ : int list array;  (** successor indices per block *)
  pred : int list array;  (** predecessor indices per block *)
}

val of_func : Func.t -> t
(** Builds the CFG reachable from the entry block.  Unreachable blocks
    are dropped (they cannot contribute stores).  Edge targets that name
    missing blocks are ignored, matching the verifier's leniency. *)

val idom : t -> int array
(** Immediate-dominator tree (Cooper–Harvey–Kennedy over the RPO
    ordering of [blocks]): [idom.(i)] is the index of block [i]'s
    immediate dominator, with the entry its own dominator
    ([idom.(0) = 0]).  Every block in [t] is reachable, so the array is
    total. *)

val dominates : idom:int array -> int -> int -> bool
(** [dominates ~idom a b]: does block [a] dominate block [b]?  [idom]
    must come from {!idom} on the same CFG.  Reflexive ([a] dominates
    itself); the entry dominates everything. *)

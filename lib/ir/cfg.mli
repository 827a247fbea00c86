(** Control-flow-graph utilities over {!Func.t} blocks.

    Small, allocation-light helpers shared by the verifier-style
    dataflow passes and the static DOP analyzer ([lib/analysis]):
    predecessor maps and a reverse-postorder block ordering (the order
    that makes forward dataflow converge fastest). *)

type t = {
  blocks : Func.block array;  (** in reverse postorder from the entry *)
  pred : int list array;  (** predecessor indices per block, ascending *)
  position : (string, int) Hashtbl.t;
      (** label -> position in the function's block list (the last of
          duplicate labels wins) *)
  rpo : int array;
      (** position -> index in [blocks], [-1] for an unreachable block *)
}

val of_func : Func.t -> t
(** Builds the CFG reachable from the entry block.  Unreachable blocks
    are dropped (they cannot contribute stores).  Edge targets that name
    missing blocks are ignored, matching the verifier's leniency. *)

val index_of : t -> string -> int
(** Index in [blocks] of the block with this label.  Raises [Not_found]
    if no reachable block has it. *)

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

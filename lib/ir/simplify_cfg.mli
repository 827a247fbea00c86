(** Control-flow graph cleanup.

    - removes blocks unreachable from the entry;
    - threads jumps through empty forwarding blocks
      ([b: br l] with no instructions);
    - merges a block into its unique successor when that successor has
      no other predecessors;
    - rewrites [Cond_br] with identical targets to [Br].

    Runs to a fixpoint.  Never touches the entry block's identity (the
    machine and the Smokestack pass both assume the first block is the
    entry). *)

val pass : Pass.t

(** Classic stack-smashing-protector canary (the default protection
    Smokestack replaces in the paper's evaluation setup).

    Each function with a frame larger than {!Forrest.frame_threshold}
    gets a guard slot allocated {e above} its other locals (adjacent to
    the caller's frame).  The prologue stores the per-run canary value;
    every epilogue reloads it and asserts equality via the
    [canary.fail] intrinsic.

    A linear stack overflow must cross the guard and is detected at
    function return — but a non-linear overflow (librelp's
    snprintf gap) or a targeted DOP write that never touches the guard
    sails through: canaries do not stop DOP. *)

val pass : Ir.Pass.t

val install : entropy:Crypto.Entropy.t -> Machine.Exec.state -> unit
(** Registers the [canary.get] / [canary.fail] intrinsics with a fresh
    per-run guard value. *)

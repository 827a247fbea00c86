(** Unified interface over all evaluated defenses.

    The security experiments run each attack against every defense
    through this one type, so a row of the paper's penetration-test
    comparison is literally a fold over {!all}. *)

type t =
  | No_defense
  | Stack_base  (** per-run stack base pad; static layout *)
  | Forrest_pad  (** per-build random frame padding *)
  | Static_perm  (** per-build alloca permutation *)
  | Canary  (** classic terminator canary *)
  | Smokestack of Smokestack.Config.t  (** per-invocation permutation *)

val name : t -> string

val all : t list
(** All six, Smokestack last (config {!Smokestack.Config.default}). *)

type applied = {
  defense : t;
  prog : Ir.Prog.t;  (** transformed copy; the input program is untouched *)
  fresh_state : Crypto.Entropy.t -> Machine.Exec.state;
      (** prepare a runnable state with the default
          {!Machine.Exec.prepare} heap and stack, installing whatever
          runtime the defense needs; per-run randomness comes from the
          entropy source, so distinct sources model service restarts *)
  pbox_bytes : int;  (** 0 except for Smokestack *)
  runner : Machine.Backend.t -> Machine.Backend.run_fn;
      (** [runner b] is [b.load prog], loaded on the first call for [b]
          and kept with this value, so every run of one build on one
          backend shares what the backend derives from [prog] (the
          bytecode image), and drops it with the build.  Safe to call
          from several domains. *)
}

val apply : ?seed:int64 -> t -> Ir.Prog.t -> applied
(** Compile-time application.  [seed] fixes the build-time random
    choices (Forrest pad sizes, static permutation, P-BOX row
    shuffles). *)

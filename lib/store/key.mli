(** Cache keys: the coordinates that determine an experiment outcome.

    Executions in this repository are deterministic functions of

    - the {b program source} (hashed, so the key is content-addressed:
      two paths to the same bytes share one entry),
    - the {b hardening configuration} (the
      [Smokestack.Config.fingerprint] rendering, or ["none"] for an
      unhardened run — any change to the config changes the key),
    - the {b engine kind} (reference vs bytecode; observables are
      differentially validated identical, but the cache must never
      launder one engine's artifact into the other's experiment), and
    - the {b seed} driving the run's entropy.

    [extra] carries any further determinism inputs a producer has
    (input chunk bytes, trial counts, analysis flags) in digested form;
    producers that disagree on [extra] get distinct entries. *)

type t = private {
  source : string;  (** hex digest of the program source/IR *)
  config : string;  (** hardening fingerprint, or ["none"] *)
  engine : string;  (** [Machine.Backend.kind_to_string] *)
  seed : int64;
  extra : string;  (** further determinism inputs, [""] if none *)
}

val of_source :
  source_text:string ->
  config:Smokestack.Config.t option ->
  engine:Machine.Backend.kind ->
  seed:int64 ->
  ?extra:string ->
  unit ->
  t
(** Hashes the raw source text and fingerprints the config ([None] =
    unhardened, rendered ["none"]). *)

val for_sources :
  config:Smokestack.Config.t option ->
  engine:Machine.Backend.kind ->
  seed:int64 ->
  ?extra:string ->
  unit ->
  string ->
  t
(** [for_sources ~config ~engine ~seed ?extra ()] renders the config
    fingerprint once; the function it returns hashes only each source
    text.  [of_source ~source_text ...] is
    [for_sources ... () source_text]: a batch over one configuration
    gets the same keys without re-rendering the config per source. *)

val id : t -> string
(** The content address: hex digest over every field.  Distinct keys
    have distinct ids (modulo hash collision, which {!Cache.find}'s
    key-echo check degrades to a miss). *)

val equal : t -> t -> bool

val to_json : t -> Sutil.Json.t
val of_json : Sutil.Json.t -> t option

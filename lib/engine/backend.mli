(** Registration of the bytecode engine as a {!Machine.Backend}. *)

val backend : Machine.Backend.t
(** The bytecode backend.  [load p] compiles [p] once, on the runner's
    first run ({!Compile.compile} of that run's state), and keeps the
    image for as long as the runner lives; every later run of the runner
    is {!Interp.run} of that image.  A one-shot [run] compiles afresh. *)

val install : unit -> unit
(** Registers {!backend} in the {!Machine.Backend} registry.  Linking
    this module does it once automatically; executables should still
    call [install] so the library is linked at all (OCaml drops
    unreferenced modules from executables). *)

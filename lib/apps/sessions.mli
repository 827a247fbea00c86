(** Session-oriented view of the attackable applications, for the
    multi-tenant server runtime (lib/server).

    The batch harnesses drive each application as a one-shot experiment
    (craft, run, classify).  The server runtime instead multiplexes
    many {e sessions} — benign request flows with attack sessions
    interleaved — over prepared per-tenant instances.  This module is
    the registry that makes that possible without duplicating any app
    logic: every entry reuses the application's own program, benign
    request vocabulary, and the {e same} attack function the batch
    harnesses run, so a served attack's verdict is comparable
    case-for-case with the batch verdict for the same [applied] and
    [seed]. *)

type attack = {
  aname : string;
      (** Batch-harness case name, e.g. ["proftpd/key-extraction"] —
          matches {!Harness.Crossval} rows. *)
  attack : Dopkit.attack;
}

type app = {
  sname : string;  (** e.g. ["proftpd"], ["synth-stack-direct"] *)
  sdescription : string;
  sprogram : Ir.Prog.t Lazy.t;
  benign : Sutil.Simrng.t -> string list;
      (** Draw one legitimate request flow (the chunks a benign client
          would send).  Flows stay inside the target's legitimate input
          envelope so a clean run classifies as [No_effect]. *)
  sattacks : attack list;
}

val run_benign :
  backend:Machine.Backend.t ->
  ?arm:(Machine.Exec.state -> unit) ->
  Defenses.Defense.applied ->
  seed:int64 ->
  chunks:string list ->
  Dopkit.result
(** Run a benign flow against a prepared instance and classify the
    outcome ([goal_met] is necessarily false for a benign client). *)

val apps : app list
(** All nine session apps: proftpd, wireshark, librelp, and the six
    synthetic variants — carrying the batch harness's eleven attack
    cases between them. *)

val find : string -> app option

val find_attack : string -> (app * attack) option

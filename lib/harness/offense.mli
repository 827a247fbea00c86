(** E17 — the systematic offense experiment: synthesized attack chains
    vs the defense ladder.

    For each workload the chain planner ({!Dopc.Plan}) compiles a
    set of attack chains from static evidence plus semantic probing of
    the attacker's unhardened replica, and this harness runs every
    chain against three builds — undefended, selectively hardened and
    fully hardened Smokestack — with [trials] fresh-process attempts
    per cell.  Three checks ride on top:

    - {e survival}: at least one synthesized chain must land on the
      undefended build, and none may land on the fully hardened one
      (detections are fine — that is the defense working);
    - {e entropy}: the strongest landing chain per workload is brute
      forced against full hardening under the restart-after-crash
      model, next to the hand-written corpus attack for the same
      program, so the synthesized families' measured entropy can be
      compared with the hand-written number ({!Security.brute});
    - {e grounding}: every chain that lands dynamically must be
      grounded in statically enumerated {!Analysis.Dop} pairs for its
      own (buffer function, buffer slot) — the {!Crossval} feedback
      loop, now over machine-generated attacks.

    Determinism: chains are synthesized with probing pinned to the
    reference engine, verdicts derive only from outcomes, output and
    final memory (engine-identical observables), and cells run as
    {!Sched.Pool} jobs whose results merge in submission order — the
    report is byte-identical at any [--jobs], on either engine, and on
    a warm store re-run. *)

type synth_row = {
  tname : string;
  static_pairs : int;
  gadget_count : int;
  flip_count : int;  (** mined global flip targets *)
  probes_run : int;  (** replica executions spent learning gadgets *)
  learned_count : int;  (** probed arithmetic gadgets *)
  chain_count : int;
}

type chain_row = {
  ctname : string;
  chain : Dopc.Chain.t;
  cells : (string * Attacks.Verdict.t list) list;
      (** per defense column: [none], [smokestack-selective],
          [smokestack-full] *)
}

type entropy_row = {
  etname : string;
  ekind : string;  (** ["synthesized <family>"] or ["hand-written"] *)
  attempts : int option;
      (** restart-after-crash attempts until the first success against
          full hardening; [None] = budget exhausted *)
  ebudget : int;
}

type feedback_row = {
  ftname : string;
  fchain_id : string;
  ffamily : string;
  fpairs : int;  (** static pairs the chain is grounded in *)
  fgrounded : bool;
      (** every pair id on the chain resolves to a statically
          enumerated pair over the chain's own buffer *)
}

type t = {
  srows : synth_row list;
  crows : chain_row list;
  erows : entropy_row list;
  frows : feedback_row list;
  trials : int;
  landed_unhardened : int;  (** chains with >= 1 success, undefended *)
  full_successes : int;  (** chains with >= 1 success, full hardening *)
  all_grounded : bool;  (** every landing chain is statically grounded *)
}

val available_workloads : unit -> string list
(** The built-in targets: the six {!Apps.Synth} variants plus the
    [read_input]-driven I/O request loops of {!Apps.Spec}. *)

val run :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?store:Store.Cache.t ->
  ?trials:int ->
  ?brute_budget:int ->
  ?max_chains:int ->
  ?workloads:string list ->
  ?progen:int ->
  unit ->
  t
(** One pool job per target.  [workloads] (default: all of
    {!available_workloads}) selects built-in targets by name; [progen]
    (default 0) appends that many Progen-generated programs from seed
    9001 — input-free programs honestly synthesize zero deliverable
    chains and appear only in the synthesis table.  [trials] (default 6) attempts per (chain,
    defense) cell; [brute_budget] (default 600) caps each entropy
    measurement.  With [?store], every cell's verdict list (trials and
    brute-force alike) is keyed on (source, config, engine, chain id,
    parameters) and served warm. *)

val synth_table : t -> Sutil.Texttable.t
val chain_table : t -> Sutil.Texttable.t
val entropy_table : t -> Sutil.Texttable.t
val feedback_table : t -> Sutil.Texttable.t
val output : t -> Output.t
(** The four E17 tables ([offense_synth], [offense], [offense_entropy],
    [offense_feedback]) and the headline line. *)

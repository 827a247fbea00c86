(** E13 — chaos: seeded fault injection across workloads and engines.

    Sweeps a fixed population of {!Fault.Plan}s (one per site family
    plus never-firing controls) over application workloads,
    running every (workload, plan) cell on {e both} execution backends
    under the fail-secure degradation policy.  Each cell reports:

    - the structured run outcome (a fault plan may never make the VM
      raise — it exits, faults, or detects);
    - how often the injection actually fired;
    - whether the corruption was {e caught} — a [Detected] outcome
      (the FID XOR check) or an RNG health-test degradation;
    - whether both engines agreed bit-for-bit on every observable;
    - whether the observables are bit-identical to the fault-free run
      ({b asserted} for plans whose trigger never fires — arming a
      dormant fault must cost nothing).

    RNG-site plans run under the [RDRAND] scheme (the hardware source
    the documented [Rdrand → AES-10 → abort] chain protects); other
    plans run under the default AES-10 configuration.

    A second, two-row comparison reruns the stuck-at-all-ones plan
    under both policies and scores the surviving randomness via
    {!Smokestack.Entropy_an}: fail-secure degrades to AES-10 and keeps
    the full expected brute-force cost, fail-open degrades to the
    memory-resident [pseudo] scheme whose disclosed state collapses
    the cost to a single attempt (the E10 prediction attack). *)

type row = {
  cworkload : string;
  cspec : string;  (** canonical plan spec ({!Fault.Plan.to_spec}) *)
  cfamily : string;  (** ["rng"], ["mem"] or ["intr"] *)
  coutcome : string;  (** reference-engine outcome *)
  cfired : int;  (** injections that actually happened *)
  ccaught : bool;  (** [Detected] outcome or a recorded degradation *)
  cdegradations : string list;  (** e.g. ["RDRAND->AES-10"] *)
  cengines_agree : bool;
      (** both backends: same outcome, output, cycles, instruction
          count, fired count and degradations *)
  cclean : bool;  (** observables identical to the fault-free run *)
  ccorrupting : bool;
      (** counted in the detection rate (latency spikes are not) *)
}

type policy_row = {
  ppolicy : string;  (** ["fail-secure"] or ["fail-open"] *)
  poutcome : string;
  pdegradations : string list;
  pscore : float;
      (** expected brute-force attempts against the post-degradation
          scheme (1.0 = layout effectively disclosed) *)
}

type t = {
  rows : row list;
  caught : int;
  corrupting_fired : int;  (** corrupting plans that fired at least once *)
  detection_rate : float;  (** [caught / corrupting_fired] (0 if none) *)
  policy : policy_row list;
}

val run :
  ?pool:Sched.Pool.t ->
  ?workloads:string list ->
  ?seed:int64 ->
  unit ->
  t
(** One job per (workload, plan) cell, merged in submission order — the
    report is byte-identical at every pool width.  Raises [Failure] on
    an unknown workload name, or if a never-firing plan changed any
    observable. *)

val table : t -> Sutil.Texttable.t
val output : t -> Output.t
(** The E13 tables ([chaos], [chaos_policy]) and the detection line. *)

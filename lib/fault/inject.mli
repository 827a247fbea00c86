(** Arming a {!Plan} against a live machine state.

    [arm] threads one plan into the three injection layers:

    - {b RNG draws} ([rng:*] except [lat]) install a
      {!Rng.Generator.set_tamper} hook on the supplied generator; the
      tamper applies only while the generator still runs the scheme it
      had at arm time (a degraded generator has abandoned the faulty
      physical source).  Without [?gen] — an unhardened run, or the
      [pseudo] scheme whose draws live in VM memory and never touch
      the generator — the plan arms as a no-op.
    - {b RNG latency} ([rng:lat]) wraps the [ss.rand]/[ss.pad]
      intrinsics to charge the extra cycles on each triggered draw
      request (a hardware retry loop costs time, not correctness).
    - {b Memory flips} ([mem:*]) install a {!Machine.Memory} access
      hook that fires {e once}, at the first checked access whose
      instruction count the trigger covers, flipping the planned bit
      via {!Machine.Memory.flip_bit}.  The byte offset counts down
      from the stack top (where live frames sit) or up from the data
      base, reduced modulo the segment's extent size (not the part of
      it materialized so far).
    - {b Intrinsics} ([intr:*]) wrap the named intrinsic: on triggered
      invocations the first argument (for result-less intrinsics such
      as [ss.fid_assert]) or the result is XORed with the plan's
      constant.

    Arming must happen after the Smokestack runtime is installed
    (otherwise there is no intrinsic to wrap) and before {!run}.  All
    injections are deterministic: a plan whose trigger never fires
    leaves every observable of the run bit-identical to the fault-free
    run (asserted by E13). *)

type armed

val arm : ?gen:Rng.Generator.t -> Plan.t -> Machine.Exec.state -> armed

val plan : armed -> Plan.t

val fired : armed -> int
(** Injections that actually happened: tampered draws, flipped bits,
    corrupted or delayed intrinsic invocations. *)

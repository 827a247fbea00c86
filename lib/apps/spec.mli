(** SPEC CPU2006-like workloads and the I/O-bound applications
    (paper §V-A).

    Real SPEC inputs are neither runnable in this VM nor necessary: the
    performance-overhead {e shape} in Figure 3 is driven by each
    benchmark's call intensity, automatic-variable count, and frame
    size, and by the P-BOX footprint for Figure 4.  Each workload here
    is an executable MiniC kernel written to reproduce its namesake's
    published character — e.g. [gobmk]'s multi-KiB board frames,
    [perlbench]'s deep call chains and many distinct small functions,
    [libquantum]'s tight loops with almost no calls.

    [sched_bias_pct] models the register-pressure/scheduling effect the
    paper isolates with Oprofile (§V-A: speedups up to 2.6% where
    registers were underutilized, extra slowdown where they were not).
    An interpreter has no register allocator, so this second-order
    effect cannot emerge from execution; it is added — identically for
    every scheme — when the harness reports percentages, and it is the
    only non-measured component (documented in DESIGN.md). *)

type workload = {
  wname : string;
  kind : [ `Spec | `Io ];
  description : string;
  source : string;
  input : string;  (** bytes served to [read_input]/[input_byte] *)
  sched_bias_pct : float;
  program : Ir.Prog.t Lazy.t;
  dop_hints : (string * string) list;
      (** [(function, slot)] pairs the static analyzer is expected to
          classify overflow-capable — ground-truth annotations for the
          analysis experiment and its tests *)
}

val all : workload list
val spec : workload list
(** The twelve CPU2006-like kernels, in Figure 3 order. *)

val find : string -> workload option

(** E7 — ablation of the §III-E P-BOX optimizations.

    For each configuration (all optimizations on; each one disabled in
    turn) measure the P-BOX footprint over the full workload set and
    the runtime of the most call-dense workload, isolating what each
    optimization buys:

    - power-of-2 rows trade memory (duplicated rows) for a cheaper
      prologue (AND instead of modulo);
    - table sharing and rounding-up trade nothing for smaller
      P-BOXes;
    - FID checks cost an extra permuted slot per function (larger
      tables) plus a prologue/epilogue pair — the price of replacing
      the stack protector with something DOP-aware;
    - VLA padding costs one draw + dummy alloca per VLA. *)

type row = {
  label : string;
  config : Smokestack.Config.t;
  total_pbox_bytes : int;  (** summed over all workload binaries *)
  gobmk_cycles : float;  (** runtime of the call-dense probe workload *)
}

type t = { rows : row list }

val run : ?pool:Sched.Pool.t -> backend:Machine.Backend.t -> unit -> t
(** One job per ablation configuration when [?pool] is parallel. *)

val table : t -> Sutil.Texttable.t

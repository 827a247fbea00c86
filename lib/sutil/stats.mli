(** Small statistics kit used by the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean. Raises [Invalid_argument] on the empty list. *)

val geomean : float list -> float
(** Geometric mean; inputs must be positive. *)

val median : float list -> float

val percent_overhead : baseline:float -> measured:float -> float
(** [(measured - baseline) / baseline * 100.]; negative means speedup. *)

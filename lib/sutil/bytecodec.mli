(** Little-endian integer codecs over [Bytes.t].

    The virtual machine stores all multi-byte values little-endian, as
    on the x86-64 testbed used in the paper.  Widths are 1, 2, 4 and 8
    bytes; values are represented as OCaml [int64] for full 64-bit
    loads/stores and [int] elsewhere. *)

val get : Bytes.t -> width:int -> int -> int64
(** [get b ~width off] reads a [width]-byte little-endian value
    (zero-extended). [width] must be 1, 2, 4 or 8. *)

val set : Bytes.t -> width:int -> int -> int64 -> unit
(** [set b ~width off v] writes the low [width] bytes of [v]
    little-endian at [off]. *)

val sext : width:int -> int64 -> int64
(** [sext ~width v] sign-extends the low [width] bytes of [v]. *)

val zext : width:int -> int64 -> int64
(** [zext ~width v] zero-extends (truncates) [v] to [width] bytes. *)

(** IR types with x86-64 (System V) size and alignment rules.

    Smokestack's analysis passes need exactly two facts about every
    stack allocation: its byte size and its alignment requirement,
    including for aggregates where the paper notes the computation is
    recursive (element alignments) with the aggregate aligned to its
    largest element.  This module is the single source of truth for
    both. *)

type t =
  | I1  (** boolean, stored as one byte *)
  | I8
  | I16
  | I32
  | I64
  | Ptr  (** untyped 8-byte pointer *)
  | Array of t * int  (** [Array (elt, n)], [n >= 0] *)
  | Struct of { name : string; fields : t list }

val size : t -> int
(** Byte size, including internal and trailing struct padding. *)

val alignment : t -> int
(** Alignment requirement: natural for scalars; for arrays, the element
    alignment; for structs, the maximum field alignment (recursively),
    per the paper's §IV-A. *)

val struct_field_offsets : t list -> int list
(** Byte offset of each field once alignment padding is inserted. *)

val is_scalar : t -> bool
(** True for [I1]..[I64] and [Ptr]. *)

val scalar_width : t -> int
(** Byte width of a scalar type. Raises [Invalid_argument] on
    aggregates. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

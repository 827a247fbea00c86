(** MiniC's source-level types.

    All integer types are signed (char 1, short 2, int 4, long 8 bytes,
    as on LP64).  Structs are referenced by name and resolved against
    the program's struct table during lowering. *)

type t =
  | Void
  | Char
  | Short
  | Int
  | Long
  | Ptr of t
  | Array of t * int
  | Struct of string

val is_integer : t -> bool
val is_pointer : t -> bool

val integer_width : t -> int
(** Byte width of an integer type. Raises [Invalid_argument]
    otherwise. *)

val decay : t -> t
(** Array-to-pointer decay; identity on other types. *)

val equal : t -> t -> bool
val to_string : t -> string

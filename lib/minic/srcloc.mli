(** Source locations and front-end errors. *)

type t = { line : int; col : int }

val dummy : t

exception Error of { loc : t; msg : string }

val error : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error loc fmt ...] raises {!Error} with a formatted message. *)

val to_string : exn -> string option
(** Renders an {!Error}; [None] for other exceptions. *)

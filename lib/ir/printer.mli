(** Textual rendering of IR programs (LLVM-flavoured, for humans). *)

val prog_to_string : Prog.t -> string

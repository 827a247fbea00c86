(** Recursive-descent parser for MiniC.

    Grammar summary (C subset): struct definitions, globals with
    constant initializers, extern prototypes, function definitions;
    statements: declarations (including VLAs), expression statements,
    [if]/[else], [while], [do]/[while], [for], [return], [break],
    [continue], blocks; the usual C expression grammar with
    precedence-correct binary operators, short-circuit [&&]/[||],
    [?:], assignment ([=], [+=], [-=]), casts, [sizeof], pre/post
    increment, member access, indexing, and calls (direct or through a
    pointer).

    Raises {!Srcloc.Error} on syntax errors. *)

val parse : string -> Ast.program
(** Lex and parse a full translation unit. *)

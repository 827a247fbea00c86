(** ASCII table rendering for the experiment harness.

    The harness prints the same rows the paper's tables and figures
    report; this module owns the formatting so every experiment output
    looks uniform. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** [create ~columns] starts a table with the given header cells and
    per-column alignment. *)

val add_row : t -> string list -> unit
(** Appends a row. Raises [Invalid_argument] if the cell count differs
    from the column count. *)

val add_rule : t -> unit
(** Appends a horizontal rule (drawn as a dashed line). *)

val render : t -> string
(** Renders the table with a header rule and column padding. *)

val to_markdown : t -> string
(** Renders the table as a markdown pipe table: a [| h | … |] header, a
    [|---|…|] separator and one line per row.  An empty cell renders as
    [| |]; the first cell of a row that follows a rule renders in bold,
    so a summary row under {!add_rule} reads [| **mean** | … |]. *)

val to_json : ?title:string -> t -> Json.t
(** Machine-readable form: [{"title"?, "columns": [...], "rows": [[...]]}].
    Used by the [--json DIR] writer, [Harness.Output.write_json]. *)

val print : ?title:string -> t -> unit
(** [print ?title t] writes the rendered table (preceded by [title] and
    an underline when given) to stdout. *)

val fmt_pct : float -> string
(** Formats a percentage with sign and one decimal, e.g. ["+10.3%"]. *)

val fmt_f1 : float -> string
(** One-decimal float, e.g. ["92.8"]. *)

val fmt_bytes : int -> string
(** Human-readable byte count, e.g. ["12.3 KiB"]. *)

(** An experiment's output, declared once.

    One ordered list of blocks: free text and named tables.  The
    EXPERIMENTS.md section ({!to_markdown}) and every
    [BENCH_<name>.json] ({!write_json}) are rendered from the same list,
    so a table's cells and title cannot differ between the two. *)

type form =
  | Pipe  (** a markdown pipe table; the title is in the JSON only *)
  | Captioned  (** the title as a caption line, then the aligned ASCII table *)
  | Ascii  (** the aligned ASCII table alone; the title is in the JSON only *)
  | Json_only
      (** left out of the report: for wall-clock cells, which would break
          its run-to-run byte identity *)

type block =
  | Text of string  (** one paragraph, ending in a newline *)
  | Table of {
      name : string;  (** the [BENCH_<name>.json] stem *)
      title : string;
      form : form;
      table : Sutil.Texttable.t;
    }

type t = block list

val text : ('a, unit, string, block) format4 -> 'a
(** [text fmt …] is the formatted line as a {!Text} paragraph. *)

val table : ?form:form -> string -> string -> Sutil.Texttable.t -> block
(** [table ?form name title tbl]; [form] defaults to {!Captioned}. *)

val to_markdown : t -> string
(** Every block that the report shows, each followed by a blank line. *)

val names : t -> string list
(** The [BENCH_<name>.json] stems, in order. *)

val write_json : dir:string -> t -> unit
(** Writes each table as [dir/BENCH_<name>.json]
    ({!Sutil.Texttable.to_json} with its title). *)

type align = Left | Right
type row = Cells of string list | Rule
type t = { columns : (string * align) list; mutable rows : row list }

let create ~columns = { columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Sutil.Texttable.add_row: %d cells for %d columns"
         (List.length cells) (List.length t.columns));
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let render t =
  let rows = List.rev t.rows in
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w -> function
            | Cells cells -> max w (String.length (List.nth cells i))
            | Rule -> w)
          (String.length h) rows)
      headers
  in
  let pad align w s =
    let fill = String.make (w - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let buf = Buffer.create 256 in
  let render_cells cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        let _, align = List.nth t.columns i in
        Buffer.add_string buf (pad align (List.nth widths i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  let total_width =
    List.fold_left ( + ) 0 widths + (2 * (List.length widths - 1))
  in
  render_cells headers;
  Buffer.add_string buf (String.make total_width '-');
  Buffer.add_char buf '\n';
  List.iter
    (function
      | Cells cells -> render_cells cells
      | Rule ->
          Buffer.add_string buf (String.make total_width '-');
          Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* A row after a rule is a summary row: its first cell goes bold. *)
let to_markdown t =
  let buf = Buffer.create 256 in
  let line cells =
    Buffer.add_char buf '|';
    List.iter
      (fun c ->
        Buffer.add_string buf (if c = "" then " |" else " " ^ c ^ " |"))
      cells;
    Buffer.add_char buf '\n'
  in
  line (List.map fst t.columns);
  Buffer.add_char buf '|';
  List.iter (fun _ -> Buffer.add_string buf "---|") t.columns;
  Buffer.add_char buf '\n';
  let rec rows after_rule = function
    | [] -> ()
    | Rule :: rest -> rows true rest
    | Cells (first :: cells) :: rest when after_rule ->
        line (("**" ^ first ^ "**") :: cells);
        rows false rest
    | Cells cells :: rest ->
        line cells;
        rows false rest
  in
  rows false (List.rev t.rows);
  Buffer.contents buf

let row_cells t =
  List.rev
    (List.filter_map (function Cells cells -> Some cells | Rule -> None) t.rows)

let to_json ?title t =
  let title_fields =
    match title with Some s -> [ ("title", Json.String s) ] | None -> []
  in
  Json.Obj
    (title_fields
    @ [
        ("columns", Json.List (List.map (fun (c, _) -> Json.String c) t.columns));
        ( "rows",
          Json.List
            (List.map
               (fun cells ->
                 Json.List (List.map (fun c -> Json.String c) cells))
               (row_cells t)) );
      ])

let print ?title t =
  (match title with
  | Some title ->
      print_endline title;
      print_endline (String.make (String.length title) '=')
  | None -> ());
  print_string (render t);
  print_newline ()

let fmt_pct v = Printf.sprintf "%+.1f%%" v
let fmt_f1 v = Printf.sprintf "%.1f" v

let fmt_bytes n =
  if n < 1024 then Printf.sprintf "%d B" n
  else if n < 1024 * 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.)
  else if n < 1024 * 1024 * 1024 then
    Printf.sprintf "%.1f MiB" (float_of_int n /. (1024. *. 1024.))
  else Printf.sprintf "%.2f GiB" (float_of_int n /. (1024. *. 1024. *. 1024.))

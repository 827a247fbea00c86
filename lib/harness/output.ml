type form = Pipe | Captioned | Ascii | Json_only

type block =
  | Text of string
  | Table of { name : string; title : string; form : form; table : Sutil.Texttable.t }

type t = block list

let text fmt = Printf.ksprintf (fun s -> Text (s ^ "\n")) fmt
let table ?(form = Captioned) name title table = Table { name; title; form; table }

let paragraph = function
  | Text s -> Some s
  | Table { form = Pipe; table; _ } -> Some (Sutil.Texttable.to_markdown table)
  | Table { form = Captioned; title; table; _ } ->
      Some (title ^ "\n\n" ^ Sutil.Texttable.render table)
  | Table { form = Ascii; table; _ } -> Some (Sutil.Texttable.render table)
  | Table { form = Json_only; _ } -> None

let to_markdown blocks =
  String.concat "" (List.filter_map (fun b -> Option.map (fun p -> p ^ "\n") (paragraph b)) blocks)

let names = List.filter_map (function Table { name; _ } -> Some name | Text _ -> None)

let write_json ~dir =
  List.iter (function
    | Text _ -> ()
    | Table { name; title; table; _ } ->
        let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
        Out_channel.with_open_text path (fun oc ->
            Sutil.Json.doc_to_channel ~indent:true oc (Sutil.Texttable.to_json ~title table)))

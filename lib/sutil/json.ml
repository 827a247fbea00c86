type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

(* The printer writes through a sink so the same traversal serves both
   the in-memory renderer (to_string) and the streaming channel writer
   (to_channel) — multi-MB campaign reports never materialize as one
   string. *)
type sink = { str : string -> unit; chr : char -> unit }

let escape_string sink s =
  sink.chr '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> sink.str "\\\""
      | '\\' -> sink.str "\\\\"
      | '\n' -> sink.str "\\n"
      | '\r' -> sink.str "\\r"
      | '\t' -> sink.str "\\t"
      | c when Char.code c < 0x20 ->
          sink.str (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> sink.chr c)
    s;
  sink.chr '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else if Float.is_nan f then "null" (* JSON has no NaN *)
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.17g" f in
    let short = Printf.sprintf "%.12g" f in
    let r = if float_of_string short = f then short else s in
    (* an integral float from 1e15 up can print as bare digits, which
       would read back as an Int *)
    if String.contains r '.' || String.contains r 'e' then r else r ^ ".0"

let write sink ~indent v =
  let pad n = sink.str (String.make (2 * n) ' ') in
  let rec go depth v =
    match v with
    | Null -> sink.str "null"
    | Bool b -> sink.str (if b then "true" else "false")
    | Int n -> sink.str (string_of_int n)
    | Float f -> sink.str (float_repr f)
    | String s -> escape_string sink s
    | List [] -> sink.str "[]"
    | List items ->
        sink.chr '[';
        List.iteri
          (fun i item ->
            if i > 0 then sink.chr ',';
            if indent then begin
              sink.chr '\n';
              pad (depth + 1)
            end;
            go (depth + 1) item)
          items;
        if indent then begin
          sink.chr '\n';
          pad depth
        end;
        sink.chr ']'
    | Obj [] -> sink.str "{}"
    | Obj fields ->
        sink.chr '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then sink.chr ',';
            if indent then begin
              sink.chr '\n';
              pad (depth + 1)
            end;
            escape_string sink k;
            sink.chr ':';
            if indent then sink.chr ' ';
            go (depth + 1) item)
          fields;
        if indent then begin
          sink.chr '\n';
          pad depth
        end;
        sink.chr '}'
  in
  go 0 v

let to_string ?(indent = false) v =
  let buf = Buffer.create 256 in
  write { str = Buffer.add_string buf; chr = Buffer.add_char buf } ~indent v;
  Buffer.contents buf

let to_channel ?(indent = false) oc v =
  write { str = output_string oc; chr = output_char oc } ~indent v

let doc_to_channel ?indent oc v =
  to_channel ?indent oc v;
  output_char oc '\n'

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Parse_error of string

let of_string_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let at c = !pos < n && Char.equal (String.unsafe_get s !pos) c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c = if at c then advance () else error (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> error "bad \\u escape"
  in
  (* JSON strings are Unicode; we store them as UTF-8 bytes *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  (* Moves [pos] to the next quote or backslash, or to the end. *)
  let skip_plain () =
    while
      !pos < n && (match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true)
    do
      advance ()
    done
  in
  (* A string without escapes is one [String.sub]; otherwise each run of
     plain bytes between escapes is copied whole. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if at '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (16 + !pos - start) in
      Buffer.add_substring buf s start (!pos - start);
      (* [pos] is at a quote, a backslash or the end *)
      let rec loop () =
        if !pos >= n then error "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else begin
          if !pos >= n then error "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              let v = parse_hex4 () in
              let cp =
                if v >= 0xD800 && v <= 0xDBFF then begin
                  (* high surrogate: must pair with a \uDC00-\uDFFF *)
                  if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = parse_hex4 () in
                    if lo >= 0xDC00 && lo <= 0xDFFF then
                      0x10000 + ((v - 0xD800) lsl 10) + (lo - 0xDC00)
                    else error "bad low surrogate in \\u pair"
                  end
                  else error "unpaired high surrogate"
                end
                else if v >= 0xDC00 && v <= 0xDFFF then
                  error "unpaired low surrogate"
                else v
              in
              add_utf8 buf cp
          | _ -> error "bad escape");
          let from = !pos in
          skip_plain ();
          Buffer.add_substring buf s from (!pos - from);
          loop ()
        end
      in
      loop ()
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> error (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then error "unexpected end of input";
    match s.[!pos] with
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
        advance ();
        skip_ws ();
        if at ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while at ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | '{' ->
        advance ();
        skip_ws ();
        if at '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while at ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | '-' | '0' .. '9' -> parse_number ()
    | c -> error (Printf.sprintf "unexpected %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then error "trailing garbage";
  v

let of_string s =
  match of_string_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let of_string_exn s =
  match of_string_exn s with
  | v -> v
  | exception Parse_error msg -> failwith ("Json.of_string_exn: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_int_opt = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str_opt = function String s -> Some s | _ -> None
let to_list = function List items -> items | _ -> []

(* The cursor scans [src] by index: every read of [src.[i]] is guarded
   by an explicit [i < len] check, so lexing allocates per token, never
   per character, and a NUL byte is an ordinary (unexpected) character
   rather than an end-of-input sentinel. *)
type cursor = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let loc c = { Srcloc.line = c.line; col = c.col }
let at_end c = c.pos >= c.len

(* The byte after the current one is [ch]. *)
let next_is c ch = c.pos + 1 < c.len && c.src.[c.pos + 1] = ch

let advance c =
  if c.pos < c.len then
    if c.src.[c.pos] = '\n' then begin
      c.line <- c.line + 1;
      c.col <- 1
    end
    else c.col <- c.col + 1;
  c.pos <- c.pos + 1

let one c tok =
  advance c;
  tok

let two c tok =
  advance c;
  advance c;
  tok

let is_ident_start ch = ch = '_' || (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')
let is_digit ch = ch >= '0' && ch <= '9'
let is_ident ch = is_ident_start ch || is_digit ch
let is_hex ch = is_digit ch || (ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F')

(* Advances over the longest run of [ok] bytes; [ok] rejects ['\n'],
   so the column moves by the run's length. *)
let skip_while c ok =
  let i = ref c.pos in
  while !i < c.len && ok c.src.[!i] do
    incr i
  done;
  c.col <- c.col + (!i - c.pos);
  c.pos <- !i

let rec skip_trivia c =
  if not (at_end c) then
    match c.src.[c.pos] with
    | ' ' | '\t' | '\r' | '\n' ->
        advance c;
        skip_trivia c
    | '/' when next_is c '/' ->
        skip_while c (fun ch -> ch <> '\n');
        skip_trivia c
    | '/' when next_is c '*' ->
        let start = loc c in
        advance c;
        advance c;
        while not (next_is c '/' && c.src.[c.pos] = '*') do
          if at_end c then Srcloc.error start "unterminated block comment";
          advance c
        done;
        advance c;
        advance c;
        skip_trivia c
    | _ -> ()

let hex_val ch =
  if is_digit ch then Char.code ch - Char.code '0'
  else (Char.code (Char.lowercase_ascii ch) - Char.code 'a') + 10

let lex_escape c start =
  advance c (* backslash *);
  if at_end c then Srcloc.error start "bad escape sequence";
  match c.src.[c.pos] with
  | 'n' -> one c '\n'
  | 't' -> one c '\t'
  | 'r' -> one c '\r'
  | '0' -> one c '\000'
  | '\\' -> one c '\\'
  | '\'' -> one c '\''
  | '"' -> one c '"'
  | 'x' ->
      advance c;
      if at_end c || not (is_hex c.src.[c.pos]) then
        Srcloc.error start "bad \\x escape";
      let h1 = hex_val c.src.[c.pos] in
      advance c;
      if at_end c || not (is_hex c.src.[c.pos]) then Char.chr h1
      else begin
        let h2 = hex_val c.src.[c.pos] in
        advance c;
        Char.chr ((h1 * 16) + h2)
      end
  | _ -> Srcloc.error start "bad escape sequence"

let lex_number c start =
  let begin_pos = c.pos in
  if c.src.[c.pos] = '0' && (next_is c 'x' || next_is c 'X') then begin
    advance c;
    advance c;
    skip_while c is_hex
  end
  else skip_while c is_digit;
  let text = String.sub c.src begin_pos (c.pos - begin_pos) in
  match Int64.of_string_opt text with
  | Some v -> Token.Int_lit v
  | None -> Srcloc.error start "bad integer literal %s" text

let lex_char c l =
  advance c;
  if at_end c then Srcloc.error l "unterminated character literal";
  let ch =
    if c.src.[c.pos] = '\\' then lex_escape c l
    else begin
      let ch = c.src.[c.pos] in
      advance c;
      ch
    end
  in
  if at_end c || c.src.[c.pos] <> '\'' then
    Srcloc.error l "unterminated character literal";
  advance c;
  Token.Char_lit ch

let lex_string c l =
  advance c;
  let buf = Buffer.create 16 in
  let rec str () =
    if at_end c then Srcloc.error l "unterminated string literal";
    match c.src.[c.pos] with
    | '"' -> advance c
    | '\\' ->
        Buffer.add_char buf (lex_escape c l);
        str ()
    | ch ->
        advance c;
        Buffer.add_char buf ch;
        str ()
  in
  str ();
  Token.Str_lit (Buffer.contents buf)

(* One token starting at the (in-bounds) cursor, located at [l]. *)
let lex_token c l =
  match c.src.[c.pos] with
  | ch when is_digit ch -> lex_number c l
  | ch when is_ident_start ch ->
      let begin_pos = c.pos in
      skip_while c is_ident;
      let text = String.sub c.src begin_pos (c.pos - begin_pos) in
      (match Token.keyword_of_string text with
      | Some kw -> kw
      | None -> Token.Ident text)
  | '\'' -> lex_char c l
  | '"' -> lex_string c l
  | '+' when next_is c '+' -> two c Token.Plus_plus
  | '+' when next_is c '=' -> two c Token.Plus_assign
  | '-' when next_is c '-' -> two c Token.Minus_minus
  | '-' when next_is c '=' -> two c Token.Minus_assign
  | '-' when next_is c '>' -> two c Token.Arrow
  | '*' when next_is c '=' -> two c Token.Star_assign
  | '&' when next_is c '=' -> two c Token.Amp_assign
  | '|' when next_is c '=' -> two c Token.Pipe_assign
  | '^' when next_is c '=' -> two c Token.Caret_assign
  | '<' when next_is c '<' -> two c Token.Shl
  | '>' when next_is c '>' -> two c Token.Shr
  | '<' when next_is c '=' -> two c Token.Le
  | '>' when next_is c '=' -> two c Token.Ge
  | '=' when next_is c '=' -> two c Token.Eq
  | '!' when next_is c '=' -> two c Token.Ne
  | '&' when next_is c '&' -> two c Token.And_and
  | '|' when next_is c '|' -> two c Token.Or_or
  | '+' -> one c Token.Plus
  | '-' -> one c Token.Minus
  | '*' -> one c Token.Star
  | '/' -> one c Token.Slash
  | '%' -> one c Token.Percent
  | '&' -> one c Token.Amp
  | '|' -> one c Token.Pipe
  | '^' -> one c Token.Caret
  | '~' -> one c Token.Tilde
  | '!' -> one c Token.Bang
  | '<' -> one c Token.Lt
  | '>' -> one c Token.Gt
  | '=' -> one c Token.Assign
  | '(' -> one c Token.Lparen
  | ')' -> one c Token.Rparen
  | '{' -> one c Token.Lbrace
  | '}' -> one c Token.Rbrace
  | '[' -> one c Token.Lbracket
  | ']' -> one c Token.Rbracket
  | ';' -> one c Token.Semi
  | ',' -> one c Token.Comma
  | '.' -> one c Token.Dot
  | '?' -> one c Token.Question
  | ':' -> one c Token.Colon
  | ch -> Srcloc.error l "unexpected character %C" ch

(* All fields constant, so statically allocated and never young:
   [Array.make] (and [Array.of_list], with the list's first token) of
   a young value longer than [Max_young_wosize] first forces a minor
   collection, which under OCaml 5 stops every domain. *)
let filler = { Token.tok = Token.Eof; loc = { Srcloc.line = 0; col = 0 } }

let tokenize src =
  let c = { src; len = String.length src; pos = 0; line = 1; col = 1 } in
  let rec go n acc =
    skip_trivia c;
    let l = loc c in
    if at_end c then (n + 1, { Token.tok = Token.Eof; loc = l } :: acc)
    else
      let tok = lex_token c l in
      go (n + 1) ({ Token.tok; loc = l } :: acc)
  in
  let n, rev = go 0 [] in
  let toks = Array.make n filler in
  List.iteri (fun i t -> toks.(n - 1 - i) <- t) rev;
  toks

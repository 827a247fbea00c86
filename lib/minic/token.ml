type t =
  | Int_lit of int64
  | Char_lit of char
  | Str_lit of string
  | Ident of string
  | Kw_char | Kw_short | Kw_int | Kw_long | Kw_void | Kw_struct
  | Kw_if | Kw_else | Kw_while | Kw_for | Kw_do
  | Kw_switch | Kw_case | Kw_default
  | Kw_return | Kw_break | Kw_continue | Kw_sizeof | Kw_const | Kw_extern
  | Lparen | Rparen | Lbrace | Rbrace | Lbracket | Rbracket
  | Semi | Comma | Dot | Arrow
  | Assign | Plus_assign | Minus_assign
  | Star_assign | Amp_assign | Pipe_assign | Caret_assign
  | Plus | Minus | Star | Slash | Percent
  | Amp | Pipe | Caret | Tilde | Bang
  | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | And_and | Or_or
  | Plus_plus | Minus_minus
  | Question | Colon
  | Eof

type spanned = { tok : t; loc : Srcloc.t }

let keyword_of_string = function
  | "char" -> Some Kw_char | "short" -> Some Kw_short | "int" -> Some Kw_int
  | "long" -> Some Kw_long | "void" -> Some Kw_void | "struct" -> Some Kw_struct
  | "if" -> Some Kw_if | "else" -> Some Kw_else | "while" -> Some Kw_while
  | "for" -> Some Kw_for | "do" -> Some Kw_do | "return" -> Some Kw_return
  | "switch" -> Some Kw_switch | "case" -> Some Kw_case
  | "default" -> Some Kw_default | "break" -> Some Kw_break
  | "continue" -> Some Kw_continue | "sizeof" -> Some Kw_sizeof
  | "const" -> Some Kw_const | "extern" -> Some Kw_extern
  | _ -> None

let to_string = function
  | Int_lit i -> Int64.to_string i
  | Char_lit c -> Printf.sprintf "%C" c
  | Str_lit s -> Printf.sprintf "%S" s
  | Ident s -> s
  | Kw_char -> "char" | Kw_short -> "short" | Kw_int -> "int" | Kw_long -> "long"
  | Kw_void -> "void" | Kw_struct -> "struct" | Kw_if -> "if" | Kw_else -> "else"
  | Kw_while -> "while" | Kw_for -> "for" | Kw_do -> "do" | Kw_return -> "return"
  | Kw_switch -> "switch" | Kw_case -> "case" | Kw_default -> "default"
  | Kw_break -> "break" | Kw_continue -> "continue" | Kw_sizeof -> "sizeof"
  | Kw_const -> "const" | Kw_extern -> "extern"
  | Lparen -> "(" | Rparen -> ")" | Lbrace -> "{" | Rbrace -> "}"
  | Lbracket -> "[" | Rbracket -> "]"
  | Semi -> ";" | Comma -> "," | Dot -> "." | Arrow -> "->"
  | Assign -> "=" | Plus_assign -> "+=" | Minus_assign -> "-="
  | Star_assign -> "*=" | Amp_assign -> "&=" | Pipe_assign -> "|=" | Caret_assign -> "^="
  | Plus -> "+" | Minus -> "-" | Star -> "*" | Slash -> "/" | Percent -> "%"
  | Amp -> "&" | Pipe -> "|" | Caret -> "^" | Tilde -> "~" | Bang -> "!"
  | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And_and -> "&&" | Or_or -> "||"
  | Plus_plus -> "++" | Minus_minus -> "--"
  | Question -> "?" | Colon -> ":"
  | Eof -> "<eof>"

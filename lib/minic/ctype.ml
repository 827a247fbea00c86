type t =
  | Void
  | Char
  | Short
  | Int
  | Long
  | Ptr of t
  | Array of t * int
  | Struct of string

let is_integer = function Char | Short | Int | Long -> true | _ -> false
let is_pointer = function Ptr _ -> true | _ -> false

let integer_width = function
  | Char -> 1
  | Short -> 2
  | Int -> 4
  | Long -> 8
  | t ->
      invalid_arg
        (Printf.sprintf "Minic.Ctype.integer_width: not an integer type (%s)"
           (match t with
           | Void -> "void"
           | Ptr _ -> "pointer"
           | Array _ -> "array"
           | Struct _ -> "struct"
           | _ -> assert false))

let decay = function Array (elt, _) -> Ptr elt | t -> t

let rec equal a b =
  match (a, b) with
  | Void, Void | Char, Char | Short, Short | Int, Int | Long, Long -> true
  | Ptr a, Ptr b -> equal a b
  | Array (a, n), Array (b, m) -> n = m && equal a b
  | Struct a, Struct b -> String.equal a b
  | _ -> false

let rec to_string = function
  | Void -> "void"
  | Char -> "char"
  | Short -> "short"
  | Int -> "int"
  | Long -> "long"
  | Ptr t -> to_string t ^ "*"
  | Array (t, n) -> Printf.sprintf "%s[%d]" (to_string t) n
  | Struct s -> "struct " ^ s

type t =
  | I1
  | I8
  | I16
  | I32
  | I64
  | Ptr
  | Array of t * int
  | Struct of { name : string; fields : t list }

let rec alignment = function
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 -> 4
  | I64 | Ptr -> 8
  | Array (elt, _) -> alignment elt
  | Struct { fields; _ } ->
      List.fold_left (fun a f -> max a (alignment f)) 1 fields

let rec size = function
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 -> 4
  | I64 | Ptr -> 8
  | Array (elt, n) ->
      if n < 0 then invalid_arg "Ir.Ty.size: negative array length";
      size elt * n
  | Struct { fields; _ } as t ->
      let last =
        List.fold_left
          (fun off f -> Sutil.Align.align_up off ~alignment:(alignment f) + size f)
          0 fields
      in
      Sutil.Align.align_up last ~alignment:(alignment t)

let struct_field_offsets fields =
  List.rev
    (fst
       (List.fold_left
          (fun (offs, off) f ->
            let o = Sutil.Align.align_up off ~alignment:(alignment f) in
            (o :: offs, o + size f))
          ([], 0) fields))

let is_scalar = function
  | I1 | I8 | I16 | I32 | I64 | Ptr -> true
  | Array _ | Struct _ -> false

let scalar_width t =
  if is_scalar t then size t
  else invalid_arg "Ir.Ty.scalar_width: aggregate type"

let rec to_string = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | Ptr -> "ptr"
  | Array (elt, n) -> Printf.sprintf "[%d x %s]" n (to_string elt)
  | Struct { name; _ } -> "%struct." ^ name

let pp fmt t = Format.pp_print_string fmt (to_string t)

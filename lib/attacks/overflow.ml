type write = { rel : int; data : string; label : string }

let le_bytes width v =
  String.init width (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))

let u64 ?(label = "") rel v = { rel; data = le_bytes 8 v; label }
let u32 ?(label = "") rel v = { rel; data = le_bytes 4 v; label }
let bytes ?(label = "") rel data = { rel; data; label }

let describe w =
  Printf.sprintf "%s[%d..%d)"
    (if w.label = "" then "write" else w.label)
    w.rel
    (w.rel + String.length w.data)

let craft ~len writes =
  let writes = List.sort (fun a b -> compare a.rel b.rel) writes in
  let total =
    List.fold_left
      (fun acc w ->
        if w.rel < 0 then
          invalid_arg
            (Printf.sprintf
               "Attacks.Overflow.craft: negative offset in %s" (describe w));
        max acc (w.rel + String.length w.data))
      len writes
  in
  let buf = Bytes.make total 'A' in
  let prev = ref None in
  List.iter
    (fun w ->
      (match !prev with
      | Some p when w.rel < p.rel + String.length p.data ->
          invalid_arg
            (Printf.sprintf "Attacks.Overflow.craft: %s overlaps %s"
               (describe w) (describe p))
      | _ -> ());
      Bytes.blit_string w.data 0 buf w.rel (String.length w.data);
      prev := Some w)
    writes;
  Bytes.to_string buf

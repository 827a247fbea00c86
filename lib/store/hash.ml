let hex s = Digest.to_hex (Digest.string s)

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* writes the decimal [v] ending just before [stop] *)
let rec put_digits b stop v =
  Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (v mod 10)));
  if v >= 10 then put_digits b (stop - 1) (v / 10)

(* Renders [len:part] for every part straight into one buffer of the
   exact size, then hashes it. *)
let hex_of_parts parts =
  let size =
    List.fold_left
      (fun acc p ->
        let n = String.length p in
        acc + digits n + 1 + n)
      0 parts
  in
  let b = Bytes.create size in
  let _ : int =
    List.fold_left
      (fun pos p ->
        let n = String.length p in
        let colon = pos + digits n in
        put_digits b colon n;
        Bytes.unsafe_set b colon ':';
        Bytes.unsafe_blit_string p 0 b (colon + 1) n;
        colon + 1 + n)
      0 parts
  in
  hex (Bytes.unsafe_to_string b)

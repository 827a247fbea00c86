let max_factorial_arg = 20

let factorial n =
  if n < 0 then invalid_arg "Sutil.Fact.factorial: negative argument";
  if n > max_factorial_arg then
    invalid_arg
      (Printf.sprintf "Sutil.Fact.factorial: %d! overflows a 63-bit integer" n);
  let rec go acc i = if i <= 1 then acc else go (acc * i) (i - 1) in
  go 1 n

let is_permutation a =
  let n = Array.length a in
  let seen = Array.make n false in
  let ok = ref true in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true)
    a;
  !ok

let lehmer_decode ~n idx =
  if n < 0 || n > max_factorial_arg then
    invalid_arg "Sutil.Fact.lehmer_decode: size out of range";
  let total = factorial n in
  if idx < 0 || idx >= total then
    invalid_arg
      (Printf.sprintf "Sutil.Fact.lehmer_decode: index %d out of [0, %d)" idx total);
  (* Decode [idx] through the factorial number system, selecting the
     [e]-th remaining element at each step — exactly the inner loop of
     the paper's PERMUTE procedure. *)
  let remaining = ref (List.init n Fun.id) in
  let temp = ref idx in
  Array.init n (fun i ->
      let f = factorial (n - i - 1) in
      let e = !temp / f in
      temp := !temp mod f;
      let v = List.nth !remaining e in
      remaining := List.filteri (fun j _ -> j <> e) !remaining;
      v)

let lehmer_encode p =
  if not (is_permutation p) then
    invalid_arg "Sutil.Fact.lehmer_encode: not a permutation";
  let n = Array.length p in
  let remaining = ref (List.init n Fun.id) in
  let idx = ref 0 in
  Array.iteri
    (fun i v ->
      let e =
        match List.find_index (Int.equal v) !remaining with
        | Some e -> e
        | None -> assert false
      in
      idx := !idx + (e * factorial (n - i - 1));
      remaining := List.filteri (fun j _ -> j <> e) !remaining)
    p;
  !idx

let invert p =
  if not (is_permutation p) then
    invalid_arg "Sutil.Fact.invert: not a permutation";
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun i v -> inv.(v) <- i) p;
  inv

let apply p a =
  if Array.length p <> Array.length a then
    invalid_arg "Sutil.Fact.apply: length mismatch";
  Array.map (fun i -> a.(i)) p

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix_next state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed =
  let st = ref seed in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }
let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_u64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let int t ~bound =
  if bound <= 0 then invalid_arg "Sutil.Simrng.int: non-positive bound";
  (* Rejection sampling over the top 62 bits to avoid modulo bias. *)
  let mask = 0x3FFFFFFFFFFFFFFFL in
  let limit = Int64.sub mask (Int64.rem mask (Int64.of_int bound)) in
  let rec go () =
    let v = Int64.logand (next_u64 t) mask in
    if Int64.unsigned_compare v limit >= 0 then go ()
    else Int64.to_int (Int64.rem v (Int64.of_int bound))
  in
  go ()

let bool t = Int64.logand (next_u64 t) 1L = 1L

let split_seed ~root ~id =
  (* SplitMix64 over (root, id): absorb each byte of the id as one
     golden-gamma step, so distinct ids give decorrelated streams and
     the result depends only on the pair, never on call order. *)
  let state = ref root in
  String.iter
    (fun c -> state := Int64.logxor (splitmix_next state) (Int64.of_int (Char.code c)))
    id;
  splitmix_next state

let stream ~root ~id = create ~seed:(split_seed ~root ~id)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
